package bench

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/xrand"
)

// The input contract of core.IndexOf, lineup-wide: positions (MBR
// corners) are finite and inside Params.Bounds. What holds outside it
// is asserted here exactly as core states it, as the baseline ROADMAP
// item 5's differential fuzzer tightens (reject, clamp or exact, per
// case):
//
//   - Out of bounds or infinite: those objects' own results are
//     unspecified — the space-partitioning families clamp them into an
//     edge cell and report them wholesale when the cell is contained,
//     brute force reports none of them — but no call panics,
//     CheckInvariants stays nil, and the in-contract objects of the same
//     build are reported exactly, by both kernels, tick after tick.
//   - Inverted (a min past its max): as out of bounds. The grids hold
//     such an MBR in no cell, or, where its inverted edges share a cell,
//     in the cells of its normalised span.
//   - NaN: no call panics, and nothing else. A NaN poisons the MBRs of
//     the tree families (rtree, crtree, boxrtree and whatever selects
//     it), which then miss in-contract neighbours, and the audits of the
//     layouts that inline coordinates (grid-csrxy, boxgrid-2l) compare
//     their copies with != and report the NaN itself as a divergence.

const contractSide = 1000

var contractBounds = geom.R(0, 0, contractSide, contractSide)

// contractQueries is a fixed query set: random windows, the whole space,
// windows hugging each edge (where clamped outsiders land), and one far
// larger than the space.
func contractQueries() []geom.Rect {
	r := xrand.New(11)
	qs := []geom.Rect{
		contractBounds,
		geom.R(0, 0, 40, contractSide), geom.R(contractSide-40, 0, contractSide, contractSide),
		geom.R(0, 0, contractSide, 40), geom.R(0, contractSide-40, contractSide, contractSide),
		geom.R(-1e6, -1e6, 1e6, 1e6),
	}
	for i := 0; i < 60; i++ {
		qs = append(qs, geom.Square(geom.Pt(r.Range(0, contractSide), r.Range(0, contractSide)), r.Range(10, 400)))
	}
	return qs
}

// contractRun drives one index through two ticks: build and queries,
// then per-move updates followed by the next build. snap holds the in-contract objects first, then the outsiders;
// relocate draws a fresh in-contract geometry. exact is whether the
// outsiders leave the in-contract results and the audit intact (false:
// only the absence of panics is asserted).
func contractRun[P any](t *testing.T, key string, exact bool, idx core.IndexOf[P], snap []P, inContract int,
	matches func(p P, r geom.Rect) bool, relocate func(r *xrand.Rand) P) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			t.Errorf("%s: panicked on out-of-contract input: %v", key, v)
		}
	}()
	snap = append([]P(nil), snap...)
	queryAppend := core.QueryAppendOf(idx, idx.Query)
	check := func(stage string) {
		t.Helper()
		var buf []uint32
		for _, q := range contractQueries() {
			want := 0
			for id := 0; id < inContract; id++ {
				if matches(snap[id], q) {
					want++
				}
			}
			buf = queryAppend(q, buf[:0])
			kernels := map[string][]uint32{"append": buf, "emit": nil}
			idx.Query(q, func(id uint32) { kernels["emit"] = append(kernels["emit"], id) })
			if !exact {
				continue
			}
			for kernel, ids := range kernels {
				seen := map[uint32]bool{}
				for _, id := range ids {
					if int(id) >= inContract {
						continue // an outsider: unspecified
					}
					if seen[id] || !matches(snap[id], q) {
						t.Errorf("%s %s/%s %v: in-contract id %d reported wrongly (twice: %v)", key, stage, kernel, q, id, seen[id])
					}
					seen[id] = true
				}
				if len(seen) != want {
					t.Errorf("%s %s/%s %v: %d in-contract matches, brute force %d", key, stage, kernel, q, len(seen), want)
				}
			}
		}
		if ic, ok := idx.(core.InvariantChecker); ok {
			if err := ic.CheckInvariants(); err != nil && exact {
				t.Errorf("%s %s: CheckInvariants: %v", key, stage, err)
			}
		}
	}

	idx.Build(snap)
	check("build")

	// The tick protocol: updates, then the snapshot catches up in place
	// (the index retains it), then the next build. In-contract objects
	// relocate inside the space, outsiders swap geometries among
	// themselves.
	r := xrand.New(23)
	n := len(snap)
	next := append([]P(nil), snap...)
	for id := 0; id < inContract; id += 3 {
		next[id] = relocate(r)
	}
	for id := inContract; id+1 < n; id += 2 {
		next[id], next[id+1] = snap[id+1], snap[id]
	}
	for id := range snap {
		idx.Update(uint32(id), snap[id], next[id])
	}
	copy(snap, next)
	idx.Build(snap)
	check("update")
}

func TestInputContractPoints(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	r := xrand.New(7)
	relocate := func(r *xrand.Rand) geom.Point { return geom.Pt(r.Range(0, contractSide), r.Range(0, contractSide)) }
	var inside []geom.Point
	for i := 0; i < 600; i++ {
		inside = append(inside, relocate(r))
	}
	// On the boundary is inside it.
	inside = append(inside, geom.Pt(0, 0), geom.Pt(contractSide, contractSide), geom.Pt(0, contractSide), geom.Pt(500, 0))
	for name, outsiders := range map[string][]geom.Point{
		"out-of-bounds": {
			geom.Pt(-5, 100), geom.Pt(contractSide+0.001, contractSide/2), geom.Pt(contractSide+500, 500),
			geom.Pt(500, 1e30), geom.Pt(-1e30, -1e30), geom.Pt(inf, 3), geom.Pt(7, -inf), geom.Pt(-inf, inf),
		},
		"nan": {geom.Pt(nan, 5), geom.Pt(5, nan), geom.Pt(nan, nan), geom.Pt(nan, inf), geom.Pt(700, nan)},
	} {
		snap := append(append([]geom.Point(nil), inside...), outsiders...)
		for _, tech := range Techniques() {
			p := core.Params{Bounds: contractBounds, NumPoints: len(snap)}
			contractRun(t, name+"/"+tech.Key, name != "nan", tech.Make(p), snap, len(inside), geom.Point.In, relocate)
		}
	}
}

func TestInputContractBoxes(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	r := xrand.New(9)
	relocate := func(r *xrand.Rand) geom.Rect {
		x, y := r.Range(0, contractSide-120), r.Range(0, contractSide-120)
		return geom.R(x, y, x+r.Range(0, 120), y+r.Range(0, 120))
	}
	var inside []geom.Rect
	for i := 0; i < 500; i++ {
		inside = append(inside, relocate(r))
	}
	inside = append(inside, contractBounds, geom.R(0, 0, 0, 0), geom.R(contractSide, 300, contractSide, 700))
	for name, outsiders := range map[string][]geom.Rect{
		"out-of-bounds": {
			geom.R(-50, 100, 10, 160), geom.R(900, 900, contractSide+80, contractSide+80),
			geom.R(-300, -300, -200, -200), geom.R(-1e30, -1e30, 1e30, 1e30),
			{MinX: 100, MinY: 100, MaxX: inf, MaxY: 200}, {MinX: -inf, MinY: -inf, MaxX: 50, MaxY: 60},
			{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf},
		},
		// Inverted across cells on x, on y and on both, and across the
		// whole space on x.
		"inverted": {
			{MinX: 600, MinY: 100, MaxX: 400, MaxY: 120}, {MinX: 100, MinY: 600, MaxX: 120, MaxY: 400},
			{MinX: 600, MinY: 600, MaxX: 400, MaxY: 400}, {MinX: 5000, MinY: 10, MaxX: -5000, MaxY: 20},
		},
		"nan": {
			{MinX: nan, MinY: 5, MaxX: 50, MaxY: 60}, {MinX: 5, MinY: 5, MaxX: nan, MaxY: nan},
			{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan}, {MinX: 400, MinY: nan, MaxX: 500, MaxY: inf},
		},
	} {
		snap := append(append([]geom.Rect(nil), inside...), outsiders...)
		for _, tech := range BoxTechniques() {
			p := core.Params{Bounds: contractBounds, NumPoints: len(snap)}
			contractRun(t, name+"/"+tech.Key, name != "nan", tech.Make(p), snap, len(inside), geom.Rect.Intersects, relocate)
		}
	}
}
