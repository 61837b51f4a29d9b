package grid

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/xrand"
)

var (
	_ core.InvariantChecker = (*Grid)(nil)
	_ core.InvariantChecker = (*BoxGrid)(nil)
	_ core.InvariantChecker = (*BoxGrid2L)(nil)
)

// moveSome applies k random in-place moves to pts through the index and
// the base table together (the secondary-index contract).
func moveSome(r *xrand.Rand, g *Grid, pts []geom.Point, k int) {
	for j := 0; j < k; j++ {
		id := uint32(r.Intn(len(pts)))
		np := geom.Pt(r.Range(testBounds.MinX, testBounds.MaxX), r.Range(testBounds.MinY, testBounds.MaxY))
		g.Update(id, pts[id], np)
		pts[id] = np
	}
}

func TestGridCheckInvariantsAcrossLayouts(t *testing.T) {
	r := xrand.New(99)
	for _, cfg := range allConfigs() {
		t.Run(cfg.DisplayName(), func(t *testing.T) {
			pts := randomPoints(r, 800, testBounds)
			g := MustNew(cfg, testBounds, len(pts))
			g.Build(pts)
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("after build: %v", err)
			}
			moveSome(r, g, pts, 300)
			if g.csr != nil {
				g.Build(pts) // static: the rebuild is its one maintenance
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("after updates: %v", err)
			}
		})
	}
}

// corruption is one hand-made fault of a built CSR arena: corrupt is handed
// the grid and the second of two adjacent occupied columns of one cell
// (see twoColumns), and the audit must name the fault with want.
type corruption struct {
	name, want string
	corrupt    func(g *Grid, f int)
}

// detectsCorruptions builds a CSR grid over pts for each case, checks the
// audit passes, corrupts it and wants the audit to say c.want.
func detectsCorruptions(t *testing.T, pts []geom.Point, cases []corruption) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := MustNew(CSR(), testBounds, len(pts))
			g.Build(slices.Clone(pts))
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			c.corrupt(g, twoColumns(t, g))
			if err := g.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("not detected: audit said %v, want %q", err, c.want)
			}
		})
	}
}

// TestGridCheckInvariantsDetectsCorruption proves the audit is not a
// rubber stamp: hand-corrupt the bounds of the CSR arena, its coordinate
// arena or the base table, and expect a named violation.
func TestGridCheckInvariantsDetectsCorruption(t *testing.T) {
	r := xrand.New(7)
	pts := randomPoints(r, 500, testBounds)
	detectsCorruptions(t, pts, arenaCorruptions)

	t.Run("xy arena divergence", func(t *testing.T) {
		g := MustNew(CSRXY(), testBounds, len(pts))
		g.Build(pts)
		g.csr.xy[0]++
		if err := g.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "diverge") {
			t.Fatalf("torn coordinate write not detected: %v", err)
		}
	})
}

// TestCheckCSRAuditsDenseFlag holds the audit to the one state the run path
// assumes of every arena, with no flag to vouch for it: dense, offsets
// monotone column by column, and in every column's stretch exactly the
// entries labelled with it. Each corruption is made in a cell with entries
// in two adjacent columns, where it leaves the cell's occupancy right, so
// only the column clauses can see it.
func TestCheckCSRAuditsDenseFlag(t *testing.T) {
	pts := randomPoints(xrand.New(67), 500, testBounds)
	detectsCorruptions(t, pts, columnCorruptions)
}

// arenaCorruptions fault the bounds of a CSR arena or the base table
// (TestGridCheckInvariantsDetectsCorruption).
var arenaCorruptions = []corruption{
	// The last cell's count, read off the offsets, reaches one slot past
	// what the arena holds.
	{"count exceeds capacity", "the arena begins", func(g *Grid, f int) { g.csr.starts[len(g.csr.starts)-1]++ }},
	{"arena end one short", "the arena begins", func(g *Grid, f int) { g.csr.starts[len(g.csr.starts)-1]-- }},
	{"arena start past slot 0", "the arena begins", func(g *Grid, f int) { g.csr.starts[0]++ }},
	// An object moved in the base table without a rebuild.
	{"misplaced entry", "stored in cell", func(g *Grid, f int) {
		g.pts[g.csr.ids[g.csr.starts[f]]] = geom.Pt(testBounds.MaxX-1, testBounds.MaxY-1)
	}},
}

// columnCorruptions fault the column clauses of a CSR arena alone
// (TestCheckCSRAuditsDenseFlag).
var columnCorruptions = []corruption{
	{"column offset one entry early", "outside the column", func(g *Grid, f int) { g.csr.starts[f]-- }},
	{"column offset past the next", "not monotone", func(g *Grid, f int) { g.csr.starts[f] = g.csr.starts[f+1] + 1 }},
	{"id swapped across columns", "outside the column", func(g *Grid, f int) {
		ids, k := g.csr.ids, g.csr.starts[f]
		ids[k-1], ids[k] = ids[k], ids[k-1]
	}},
	{"label of another column of the cell", "labelled column", func(g *Grid, f int) {
		g.csr.cellOf[g.csr.ids[g.csr.starts[f]]] = uint32(f - 1)
	}},
}

// twoColumns finds a cell of g with entries in two adjacent columns, and
// returns the second of the two.
func twoColumns(t *testing.T, g *Grid) int {
	cs := g.csr
	for c := 0; c < g.cells; c++ {
		for f := c<<cs.shift + 1; f < (c+1)<<cs.shift; f++ {
			if cs.starts[f] > cs.starts[f-1] && cs.starts[f+1] > cs.starts[f] {
				return f
			}
		}
	}
	t.Fatal("no cell with two adjacent occupied columns")
	return 0
}

func TestBoxGridCheckInvariants(t *testing.T) {
	r := xrand.New(21)
	rects := randomBoxes(r, 600, testBounds, 0, 40)
	bg := MustNewBoxGrid(32, testBounds, len(rects))
	bg.Build(rects)
	if err := bg.CheckInvariants(); err != nil {
		t.Fatalf("after build: %v", err)
	}
	for j := 0; j < 200; j++ {
		rects[r.Intn(len(rects))] = randomBoxes(r, 1, testBounds, 0, 40)[0]
	}
	bg.Build(rects)
	if err := bg.CheckInvariants(); err != nil {
		t.Fatalf("after a rebuild over moves: %v", err)
	}

	// Corruption: retarget the first replica to an id whose span excludes
	// its cell.
	c := 0
	for bg.starts[c] == bg.starts[c+1] {
		c++
	}
	k, cx, cy := bg.starts[c], c%bg.cps, c/bg.cps
	was := bg.ids[k]
	for id, s := range bg.spans {
		if cx < int(s.x0) || cx > int(s.x1) || cy < int(s.y0) || cy > int(s.y1) {
			bg.ids[k] = uint32(id)
			break
		}
	}
	if err := bg.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "outside its span") {
		t.Fatalf("misplaced replica not detected: %v", err)
	}
	bg.ids[k] = was
}

func TestBoxGrid2LCheckInvariants(t *testing.T) {
	r := xrand.New(22)
	rects := randomBoxes(r, 600, testBounds, 0, 40)
	bg := MustNewBoxGrid2L(32, testBounds, len(rects))
	bg.Build(rects)
	if err := bg.CheckInvariants(); err != nil {
		t.Fatalf("after build: %v", err)
	}
	for j := 0; j < 200; j++ {
		rects[r.Intn(len(rects))] = randomBoxes(r, 1, testBounds, 0, 40)[0]
	}
	bg.Build(rects)
	if err := bg.CheckInvariants(); err != nil {
		t.Fatalf("after a rebuild over moves: %v", err)
	}

	// Corruption: swap two class run ends so the partition inverts.
	for c := 0; c < bg.cells; c++ {
		a, b := bg.ends[bg.endIdx(c, 0)], bg.ends[bg.endIdx(c, 1)]
		if a == b {
			continue
		}
		bg.ends[bg.endIdx(c, 0)], bg.ends[bg.endIdx(c, 1)] = b, a
		if err := bg.CheckInvariants(); err == nil {
			t.Fatal("inverted class runs not detected")
		}
		bg.ends[bg.endIdx(c, 0)], bg.ends[bg.endIdx(c, 1)] = a, b
		break
	}
}

// TestBoxGrid2LCheckInvariantsAuditsEachPlane corrupts one value of one
// edge plane at a time — after Build, and again after a rebuild over
// moved rects — and requires the audit to name the plane and the slot; a
// plane of the wrong length is named too.
func TestBoxGrid2LCheckInvariantsAuditsEachPlane(t *testing.T) {
	r := xrand.New(23)
	rects := randomBoxes(r, 600, testBounds, 0, 60)
	bg := MustNewBoxGrid2L(32, testBounds, len(rects))
	bg.Build(rects)
	corruptEach := func(stage string) {
		t.Helper()
		if err := bg.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		// A live slot of the first non-empty cell.
		c := 0
		for bg.ends[bg.endIdx(c, 3)] == bg.starts[c] {
			c++
		}
		k := bg.starts[c] + uint32(r.Intn(int(bg.ends[bg.endIdx(c, 3)]-bg.starts[c])))
		for i, p := range bg.planes() {
			name := strings.Fields(planeNames[i])[0]
			was := (*p)[k]
			(*p)[k] = math.Nextafter32(was, boxInf)
			err := bg.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), "plane "+name) || !strings.Contains(err.Error(), fmt.Sprintf("slot %d ", k)) {
				t.Fatalf("%s: one ulp on plane %s slot %d: audit said %v", stage, name, k, err)
			}
			(*p)[k] = was
			*p = (*p)[:len(*p)-1]
			if err := bg.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "plane "+name) {
				t.Fatalf("%s: plane %s one value short: audit said %v", stage, name, err)
			}
			*p = (*p)[:len(*p)+1]
		}
	}
	corruptEach("after build")
	for j := 0; j < 300; j++ {
		rects[r.Intn(len(rects))] = randomBoxes(r, 1, testBounds, 0, 60)[0]
	}
	bg.Build(rects)
	corruptEach("after a rebuild over moves")
}
