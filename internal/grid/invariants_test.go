package grid

import (
	"fmt"
	"math"
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
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("after updates: %v", err)
			}
		})
	}
}

// TestGridCheckInvariantsDetectsCorruption proves the audit is not a
// rubber stamp: hand-corrupt CSR state and expect a named violation.
func TestGridCheckInvariantsDetectsCorruption(t *testing.T) {
	r := xrand.New(7)
	pts := randomPoints(r, 500, testBounds)

	t.Run("count exceeds capacity", func(t *testing.T) {
		g := MustNew(CSR(), testBounds, len(pts))
		g.Build(pts)
		// Inflate a live count past its segment capacity.
		for c := range g.csr.counts {
			if g.csr.counts[c] > 0 {
				lo, end := g.csr.segment(c)
				g.csr.counts[c] = end - lo + 1
				break
			}
		}
		if err := g.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "capacity") {
			t.Fatalf("corrupt count not detected: %v", err)
		}
	})

	t.Run("misplaced entry", func(t *testing.T) {
		g := MustNew(CSR(), testBounds, len(pts))
		g.Build(pts)
		// Move an object in the base table without telling the index.
		pts2 := append([]geom.Point(nil), pts...)
		g.Build(pts2)
		pts2[0] = geom.Pt(testBounds.MaxX-1, testBounds.MaxY-1)
		if err := g.CheckInvariants(); err == nil {
			t.Fatal("stale cell placement not detected")
		}
	})

	t.Run("xy arena divergence", func(t *testing.T) {
		g := MustNew(CSRXY(), testBounds, len(pts))
		g.Build(pts)
		g.csr.xy[0]++
		if err := g.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "diverge") {
			t.Fatalf("torn coordinate write not detected: %v", err)
		}
	})
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
