// Package inline is the inline gate fixture: one annotated function
// inside the inliner's budget, one annotated function over it (the gate
// must fail on exactly that one), and an unannotated control the gate
// must not look at. The gate asks the real compiler, so the fixture is
// built, not pattern-matched: TestInlineGateFixture.
package inline

type mapper struct {
	min, inv float32
	n        int
}

//joinlint:inline
func (m mapper) slim(d float32) int {
	f := (d - m.min) * m.inv
	if !(f > 0) {
		return 0
	}
	if f >= float32(m.n) {
		return m.n - 1
	}
	return int(f)
}

// fat is the slim mapper over four axes and a fold of the results: each
// call is inlined into it, and the sum of their bodies is over budget.
//
//joinlint:inline
func (m mapper) fat(a, b, c, d float32) int {
	w, x, y, z := m.slim(a), m.slim(b), m.slim(c), m.slim(d)
	return ((w*m.n+x)*m.n+y)*m.n + z
}

func (m mapper) unannotated(a, b, c, d float32) int {
	return m.fat(a, b, c, d) + m.fat(d, c, b, a)
}
