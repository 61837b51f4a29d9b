package grid

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// The audits of the static layouts answer in two stages: a proof pass
// (csrStore.proven, BoxGrid2L.proven), and on a flag the per-cell walk,
// whose error is the answer. The tests here hold each proof pass to its
// walk on a corpus of corruptions — every hand-made one of the corruption
// tests, and seeded single-word edits of every array the audit reads —
// on both tiers: the pass must flag exactly when the walk returns an
// error, and prove every clean build clean.

// editsPerArray is how many seeded single-word edits each array takes.
const editsPerArray = 40

// editWord returns v changed the ways a torn or stray write changes a
// word: one up, one down, one bit flipped, or a value drawn from
// [0, limit].
func editWord(r *xrand.Rand, v uint32, limit int) uint32 {
	switch r.Intn(4) {
	case 0:
		return v + 1
	case 1:
		return v - 1
	case 2:
		return v ^ 1<<r.Intn(32)
	default:
		return uint32(r.Intn(limit + 1))
	}
}

// editFloat returns f one ulp up or down, or with one bit flipped.
func editFloat(r *xrand.Rand, f float32) float32 {
	switch r.Intn(3) {
	case 0:
		return math.Nextafter32(f, float32(math.Inf(1)))
	case 1:
		return math.Nextafter32(f, float32(math.Inf(-1)))
	default:
		return math.Float32frombits(math.Float32bits(f) ^ 1<<r.Intn(32))
	}
}

// editSpan returns s with one of its four cell coordinates edited
// (editWord, up to limit), cut to 16 bits.
func editSpan(r *xrand.Rand, s cellSpan, limit int) cellSpan {
	f := [4]*uint16{&s.x0, &s.x1, &s.y0, &s.y1}[r.Intn(4)]
	*f = uint16(editWord(r, uint32(*f), limit))
	return s
}

// agreement tallies, for one corpus on one tier, how many cases the walk
// refused: a corpus whose edits the walk always accepts proves nothing.
type agreement struct {
	t              *testing.T
	cases, refused int
}

// check fails the test unless proven says what err says.
func (a *agreement) check(what string, proven bool, err error) {
	a.t.Helper()
	a.cases++
	if err != nil {
		a.refused++
	}
	if proven != (err == nil) {
		a.t.Errorf("%s: proof pass says clean = %v, walk says %v", what, proven, err)
	}
}

// done wants the walk to have refused at least half the corpus.
func (a *agreement) done() {
	a.t.Helper()
	a.t.Logf("the walk refused %d of %d cases", a.refused, a.cases)
	if 2*a.refused < a.cases {
		a.t.Errorf("the walk refused %d of %d cases: the corpus is too weak to compare on", a.refused, a.cases)
	}
}

// gridAudits runs both stages of a CSR grid's audit.
func gridAudits(g *Grid) (bool, error) {
	a := g.occupancy()
	return g.csr.proven(g.cells, len(g.pts), a), g.walk(a)
}

// box2LAudits runs both stages of a BoxGrid2L's audit.
func box2LAudits(bg *BoxGrid2L) (bool, error) {
	a := bg.boxAudit()
	return bg.proven(a), bg.walk(a)
}

// twoInColumn returns the first slot k of a stretch [offsets[f],
// offsets[f+1]) that holds k+1 too.
func twoInColumn(t *testing.T, offsets []uint32) uint32 {
	for f := 0; f+1 < len(offsets); f++ {
		if offsets[f+1]-offsets[f] >= 2 {
			return offsets[f]
		}
	}
	t.Fatal("no stretch of two slots")
	return 0
}

// twoInRun returns the first slot k of a class run of bg that holds k+1
// too.
func twoInRun(t *testing.T, bg *BoxGrid2L) uint32 {
	for c := 0; c < bg.cells; c++ {
		lo := bg.starts[c]
		for j := 0; j < 4; j++ {
			hi := bg.ends[bg.endIdx(c, j)]
			if hi-lo >= 2 {
				return lo
			}
			lo = hi
		}
	}
	t.Fatal("no run of two replicas")
	return 0
}

// oneColumnPoints puts n points in the first column of the CSR grid at
// testBounds, spread over every row.
func oneColumnPoints(r *xrand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Range(0, 1), r.Range(testBounds.MinY, testBounds.MaxY))
	}
	return pts
}

func TestAuditFastPassAgreesWithWalk(t *testing.T) {
	mapTiers(func(tier string) {
		t.Run(tier+"/csr", func(t *testing.T) { csrAgreement(t) })
		t.Run(tier+"/box2l", func(t *testing.T) { box2LAgreement(t) })
	})
}

func csrAgreement(t *testing.T) {
	r := xrand.New(71)
	clean := map[string][]geom.Point{
		"empty":      nil,
		"one point":  {geom.Pt(400, 600)},
		"one column": oneColumnPoints(r, 300),
		"uniform":    randomPoints(r, 500, testBounds),
	}
	for _, cfg := range []Config{CSR(), CSRXY()} {
		for name, pts := range clean {
			g := MustNew(cfg, testBounds, len(pts))
			g.Build(slices.Clone(pts))
			if proven, err := gridAudits(g); !proven || err != nil {
				t.Errorf("%s, %s build: proof pass says clean = %v, walk says %v", cfg.DisplayName(), name, proven, err)
			}
		}
	}

	a := &agreement{t: t}
	for _, seed := range []uint64{7, 67} {
		pts := randomPoints(xrand.New(seed), 500, testBounds)
		for _, c := range slices.Concat(arenaCorruptions, columnCorruptions) {
			g := MustNew(CSR(), testBounds, len(pts))
			g.Build(slices.Clone(pts))
			c.corrupt(g, twoColumns(t, g))
			proven, err := gridAudits(g)
			a.check(fmt.Sprintf("seed %d, %s", seed, c.name), proven, err)
		}
	}
	g := MustNew(CSRXY(), testBounds, len(clean["uniform"]))
	g.Build(slices.Clone(clean["uniform"]))
	g.csr.xy[0]++
	proven, err := gridAudits(g)
	a.check("xy arena divergence", proven, err)
	// A slot copied over its neighbour in the same column: only the once
	// clause sees it.
	g = MustNew(CSR(), testBounds, len(clean["uniform"]))
	g.Build(slices.Clone(clean["uniform"]))
	k := twoInColumn(t, g.csr.starts)
	g.csr.ids[k+1] = g.csr.ids[k]
	proven, err = gridAudits(g)
	a.check("id repeated in its column", proven, err)

	pts := clean["uniform"]
	edits := []struct {
		name   string
		layout Config
		edit   func(g *Grid)
	}{
		{"starts", CSR(), func(g *Grid) {
			i := r.Intn(len(g.csr.starts))
			g.csr.starts[i] = editWord(r, g.csr.starts[i], len(pts))
		}},
		{"ids", CSR(), func(g *Grid) {
			i := r.Intn(len(g.csr.ids))
			g.csr.ids[i] = editWord(r, g.csr.ids[i], len(pts))
		}},
		{"cellOf", CSR(), func(g *Grid) {
			i := r.Intn(len(g.csr.cellOf))
			g.csr.cellOf[i] = editWord(r, g.csr.cellOf[i], len(g.csr.starts))
		}},
		{"pts", CSR(), func(g *Grid) {
			p := &g.pts[r.Intn(len(g.pts))]
			p.X, p.Y = editFloat(r, p.X), editFloat(r, p.Y)
		}},
		{"xy", CSRXY(), func(g *Grid) {
			i := r.Intn(len(g.csr.xy))
			g.csr.xy[i] = editFloat(r, g.csr.xy[i])
		}},
	}
	for _, e := range edits {
		for i := 0; i < editsPerArray; i++ {
			g := MustNew(e.layout, testBounds, len(pts))
			g.Build(slices.Clone(pts))
			e.edit(g)
			proven, err := gridAudits(g)
			a.check(fmt.Sprintf("%s edit %d", e.name, i), proven, err)
		}
	}
	a.done()
}

func box2LAgreement(t *testing.T) {
	r := xrand.New(73)
	const cps = 32
	oneColumn := randomBoxes(r, 300, geom.R(0, 0, 20, 1000), 0, 10)
	clean := map[string][]geom.Rect{
		"empty":       nil,
		"one rect":    {geom.R(100, 200, 300, 250)},
		"one column":  oneColumn,
		"whole space": {testBounds, geom.R(-50, -50, 2000, 2000)},
		"uniform":     randomBoxes(r, 600, testBounds, 0, 60),
	}
	for name, rects := range clean {
		bg := MustNewBoxGrid2L(cps, testBounds, len(rects))
		bg.Build(rects)
		if proven, err := box2LAudits(bg); !proven || err != nil {
			t.Errorf("%s build: proof pass says clean = %v, walk says %v", name, proven, err)
		}
	}

	rects := clean["uniform"]
	a := &agreement{t: t}
	run := func(what string, corrupt func(bg *BoxGrid2L)) {
		t.Helper()
		bg := MustNewBoxGrid2L(cps, testBounds, len(rects))
		bg.Build(slices.Clone(rects))
		corrupt(bg)
		proven, err := box2LAudits(bg)
		a.check(what, proven, err)
	}
	// The hand-made corruptions of TestBoxGrid2LCheckInvariants,
	// TestBoxGrid2LCheckInvariantsAuditsEachPlane and, on this grid,
	// TestBoxGridCheckInvariants.
	run("class run ends swapped", func(bg *BoxGrid2L) {
		for c := 0; c < bg.cells; c++ {
			i, j := bg.endIdx(c, 0), bg.endIdx(c, 1)
			if bg.ends[i] != bg.ends[j] {
				bg.ends[i], bg.ends[j] = bg.ends[j], bg.ends[i]
				return
			}
		}
		t.Fatal("no cell with a class B run")
	})
	run("replica outside its span", func(bg *BoxGrid2L) {
		c := 0
		for bg.starts[c] == bg.starts[c+1] {
			c++
		}
		cx, cy := c%bg.cps, c/bg.cps
		for id, s := range bg.spans {
			if cx < int(s.x0) || cx > int(s.x1) || cy < int(s.y0) || cy > int(s.y1) {
				bg.ids[bg.starts[c]] = uint32(id)
				return
			}
		}
	})
	// A slot copied, planes and all, over its neighbour in the same run:
	// only the replica counts see it.
	run("replica repeated in its run", func(bg *BoxGrid2L) {
		k := twoInRun(t, bg)
		bg.ids[k+1] = bg.ids[k]
		for _, p := range bg.planes() {
			(*p)[k+1] = (*p)[k]
		}
	})
	// An object filed under the span of where it was, its planes and the
	// base table holding where it is: only the span clause sees it.
	run("object filed under a stale span", func(bg *BoxGrid2L) {
		id := 0
		for bg.rects[id].MaxX > 400 {
			id++
		}
		now := bg.rects[id]
		bg.rects[id] = geom.R(now.MinX+500, now.MinY, now.MaxX+500, now.MaxY)
		bg.Build(bg.rects)
		bg.rects[id] = now
		for k, got := range bg.ids {
			if got == uint32(id) {
				bg.mx[k], bg.my[k], bg.nx[k], bg.ny[k] = now.MaxX, now.MaxY, -now.MinX, -now.MinY
			}
		}
	})
	for i, name := range planeNames {
		run("one ulp on plane "+name, func(bg *BoxGrid2L) {
			p := *bg.planes()[i]
			k := r.Intn(len(p))
			p[k] = math.Nextafter32(p[k], boxInf)
		})
		run("plane "+name+" one value short", func(bg *BoxGrid2L) {
			p := bg.planes()[i]
			*p = (*p)[:len(*p)-1]
		})
	}

	type boxEdit struct {
		name string
		edit func(bg *BoxGrid2L)
	}
	edits := []boxEdit{
		{"starts", func(bg *BoxGrid2L) {
			i := r.Intn(len(bg.starts))
			bg.starts[i] = editWord(r, bg.starts[i], len(bg.ids))
		}},
		{"ends", func(bg *BoxGrid2L) {
			i := r.Intn(len(bg.ends))
			bg.ends[i] = editWord(r, bg.ends[i], len(bg.ids))
		}},
		{"ids", func(bg *BoxGrid2L) {
			i := r.Intn(len(bg.ids))
			bg.ids[i] = editWord(r, bg.ids[i], len(rects))
		}},
		{"spans", func(bg *BoxGrid2L) {
			i := r.Intn(len(bg.spans))
			bg.spans[i] = editSpan(r, bg.spans[i], cps)
		}},
		{"rects", func(bg *BoxGrid2L) {
			rc := &bg.rects[r.Intn(len(bg.rects))]
			e := [4]*float32{&rc.MinX, &rc.MinY, &rc.MaxX, &rc.MaxY}[r.Intn(4)]
			*e = editFloat(r, *e)
		}},
	}
	for i, name := range planeNames {
		edits = append(edits, boxEdit{"plane " + name, func(bg *BoxGrid2L) {
			p := *bg.planes()[i]
			k := r.Intn(len(p))
			p[k] = editFloat(r, p[k])
		}})
	}
	for _, e := range edits {
		for i := 0; i < editsPerArray; i++ {
			run(fmt.Sprintf("%s edit %d", e.name, i), e.edit)
		}
	}
	a.done()
}
