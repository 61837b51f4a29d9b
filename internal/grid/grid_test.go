package grid

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

var testBounds = geom.R(0, 0, 1000, 1000)

// allConfigs covers the full ablation chain plus the inline-xy extension
// and some off-preset shapes. The CSR layouts are static: the tests that
// move entries through Update rebuild them (g.csr != nil), where the bucket
// layouts are maintained in place.
func allConfigs() []Config {
	cfgs := AblationChain()
	cfgs = append(cfgs,
		Config{Name: "xy", Layout: LayoutInlineXY, Scan: ScanRange, BS: 8, CPS: 16},
		Config{Name: "xy-full", Layout: LayoutInlineXY, Scan: ScanFull, BS: 8, CPS: 16},
		Config{Name: "bs1", Layout: LayoutInline, Scan: ScanRange, BS: 1, CPS: 4},
		Config{Name: "linked-range", Layout: LayoutLinked, Scan: ScanRange, BS: 4, CPS: 13},
		Config{Name: "one-cell", Layout: LayoutInline, Scan: ScanRange, BS: 16, CPS: 1},
		Config{Name: "intrusive-range", Layout: LayoutIntrusive, Scan: ScanRange, BS: 1, CPS: 16},
		Config{Name: "intrusive-full", Layout: LayoutIntrusive, Scan: ScanFull, BS: 1, CPS: 16},
		CSR(),
		Config{Name: "csr-one-cell", Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: 1},
		CSRXY(),
	)
	return cfgs
}

func randomPoints(r *xrand.Rand, n int, bounds geom.Rect) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Range(bounds.MinX, bounds.MaxX), r.Range(bounds.MinY, bounds.MaxY))
	}
	return pts
}

// buildInput is one of the degenerate populations a counting-sort build
// is held to.
type buildInput struct {
	name    string
	n       int
	oneCell bool // every object inside the first cell (and column) of the directory
}

// buildInputs is the empty and single-object builds, three sizes that
// straddle a whole number of the CSR sort's chunks (8·sortChunk) and one
// large population, each spread over the space and crowded into one cell.
func buildInputs(large int) []buildInput {
	var out []buildInput
	for _, n := range []int{0, 1, 8*sortChunk - 1, 8 * sortChunk, 8*sortChunk + 1, large} {
		out = append(out,
			buildInput{fmt.Sprintf("n=%d", n), n, false},
			buildInput{fmt.Sprintf("n=%d/one-cell", n), n, true})
	}
	return out
}

// points draws the input in bounds; a one-cell input lies in a unit
// square one unit in from the lower corner, inside the first cell and
// column of every directory the tests build.
func (in buildInput) points(rng *xrand.Rand, bounds geom.Rect) []geom.Point {
	if in.oneCell {
		bounds = geom.R(bounds.MinX+1, bounds.MinY+1, bounds.MinX+2, bounds.MinY+2)
	}
	return randomPoints(rng, in.n, bounds)
}

// boxes is points for rectangles: sides up to 150 over the space, up to
// 2 around centres in a two-unit square when crowded into one cell.
func (in buildInput) boxes(rng *xrand.Rand, bounds geom.Rect) []geom.Rect {
	if in.oneCell {
		return randomBoxes(rng, in.n, geom.R(bounds.MinX+2, bounds.MinY+2, bounds.MinX+4, bounds.MinY+4), 0, 2)
	}
	return randomBoxes(rng, in.n, bounds, 0, 150)
}

func bruteQuery(pts []geom.Point, r geom.Rect) map[uint32]bool {
	want := make(map[uint32]bool)
	for i := range pts {
		if pts[i].In(r) {
			want[uint32(i)] = true
		}
	}
	return want
}

func collect(g *Grid, r geom.Rect) map[uint32]bool {
	got := make(map[uint32]bool)
	g.Query(r, func(id uint32) {
		if got[id] {
			panic("duplicate emission")
		}
		got[id] = true
	})
	return got
}

func sameSet(t *testing.T, got, want map[uint32]bool, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", ctx, len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("%s: missing id %d", ctx, id)
		}
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	r := xrand.New(42)
	pts := randomPoints(r, 3000, testBounds)
	queries := make([]geom.Rect, 50)
	for i := range queries {
		c := geom.Pt(r.Range(-50, 1050), r.Range(-50, 1050))
		queries[i] = geom.Square(c, r.Range(1, 300))
	}
	for _, cfg := range allConfigs() {
		t.Run(cfg.DisplayName(), func(t *testing.T) {
			g := MustNew(cfg, testBounds, len(pts))
			g.Build(pts)
			if g.Len() != len(pts) {
				t.Fatalf("Len = %d, want %d", g.Len(), len(pts))
			}
			for qi, q := range queries {
				sameSet(t, collect(g, q), bruteQuery(pts, q), cfg.DisplayName()+" query "+itoa(qi))
			}
		})
	}
}

func TestEmptyGrid(t *testing.T) {
	for _, cfg := range allConfigs() {
		g := MustNew(cfg, testBounds, 0)
		g.Build(nil)
		if g.Len() != 0 {
			t.Fatalf("%s: empty grid Len = %d", cfg.DisplayName(), g.Len())
		}
		n := 0
		g.Query(testBounds, func(uint32) { n++ })
		if n != 0 {
			t.Fatalf("%s: empty grid emitted %d", cfg.DisplayName(), n)
		}
	}
}

func TestWholeSpaceQueryReturnsEverything(t *testing.T) {
	r := xrand.New(7)
	pts := randomPoints(r, 500, testBounds)
	for _, cfg := range allConfigs() {
		g := MustNew(cfg, testBounds, len(pts))
		g.Build(pts)
		got := collect(g, testBounds.Expand(1))
		if len(got) != len(pts) {
			t.Fatalf("%s: whole-space query returned %d of %d", cfg.DisplayName(), len(got), len(pts))
		}
	}
}

func TestPointOnCellBoundary(t *testing.T) {
	// Points exactly on internal cell boundaries must land in exactly one
	// cell and still be found by queries covering either side.
	cfg := Config{Layout: LayoutInline, Scan: ScanRange, BS: 4, CPS: 10}
	g := MustNew(cfg, testBounds, 4)
	// Cell size is 100; 300 is a boundary between cells 2 and 3.
	pts := []geom.Point{geom.Pt(300, 300), geom.Pt(0, 0), geom.Pt(999.9, 999.9), geom.Pt(500, 300)}
	g.Build(pts)
	for i, q := range []geom.Rect{
		geom.R(250, 250, 350, 350), // straddles the boundary
		geom.R(300, 300, 301, 301), // starts exactly on it
		geom.R(299, 299, 300, 300), // ends exactly on it
	} {
		got := collect(g, q)
		if !got[0] {
			t.Fatalf("query %d missed the boundary point", i)
		}
	}
}

func TestBuildResetsPreviousContent(t *testing.T) {
	r := xrand.New(9)
	for _, cfg := range allConfigs() {
		g := MustNew(cfg, testBounds, 100)
		g.Build(randomPoints(r, 100, testBounds))
		fresh := randomPoints(r, 60, testBounds)
		g.Build(fresh)
		if g.Len() != 60 {
			t.Fatalf("%s: Len after rebuild = %d, want 60", cfg.DisplayName(), g.Len())
		}
		sameSet(t, collect(g, testBounds), bruteQuery(fresh, testBounds), cfg.DisplayName())
	}
}

func TestUpdateMovesEntries(t *testing.T) {
	r := xrand.New(11)
	for _, cfg := range allConfigs() {
		t.Run(cfg.DisplayName(), func(t *testing.T) {
			pts := randomPoints(r, 400, testBounds)
			g := MustNew(cfg, testBounds, len(pts))
			g.Build(pts)
			// Move 200 random entries to fresh random positions, then
			// verify via per-cell counts (coordinates visible to filtering
			// come from the snapshot, which the driver refreshes at the
			// next build; here we check the structure itself).
			moved := make([]geom.Point, len(pts))
			copy(moved, pts)
			for i := 0; i < 200; i++ {
				id := uint32(r.Intn(len(pts)))
				to := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
				g.Update(id, moved[id], to)
				moved[id] = to
			}
			if g.csr != nil {
				g.Build(moved)
			}
			if g.Len() != len(pts) {
				t.Fatalf("Len after updates = %d, want %d", g.Len(), len(pts))
			}
			// Every entry must now be counted in the cell of its new
			// position.
			counts := make(map[int]int)
			for _, p := range moved {
				counts[g.mapper.cellOf(p)]++
			}
			xs, ys := g.cellEdges(), g.rowEdges()
			for c, want := range counts {
				cx := c % cfg.CPS
				cy := c / cfg.CPS
				probe := geom.Pt((xs[cx]+xs[cx+1])/2, (ys[cy]+ys[cy+1])/2)
				if got := g.CellCount(probe); got != want {
					t.Fatalf("cell %d count = %d, want %d", c, got, want)
				}
			}
		})
	}
}

func TestUpdateThenRebuildQueriesCorrectly(t *testing.T) {
	r := xrand.New(13)
	for _, cfg := range allConfigs() {
		pts := randomPoints(r, 300, testBounds)
		g := MustNew(cfg, testBounds, len(pts))
		g.Build(pts)
		for i := 0; i < 100; i++ {
			id := uint32(r.Intn(len(pts)))
			to := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
			g.Update(id, pts[id], to)
			pts[id] = to
		}
		g.Build(pts) // next tick
		q := geom.Square(geom.Pt(500, 500), 400)
		sameSet(t, collect(g, q), bruteQuery(pts, q), cfg.DisplayName())
	}
}

func TestUpdateUnknownEntryPanics(t *testing.T) {
	g := MustNew(CPSTuned(), testBounds, 4)
	g.Build([]geom.Point{geom.Pt(1, 1)})
	defer func() {
		if recover() == nil {
			t.Fatal("updating a non-existent entry must panic")
		}
	}()
	g.Update(5, geom.Pt(900, 900), geom.Pt(10, 10))
}

func TestDuplicatePositions(t *testing.T) {
	// Many entries at the identical position must all be stored, found,
	// and individually removable.
	for _, cfg := range allConfigs() {
		g := MustNew(cfg, testBounds, 64)
		pts := make([]geom.Point, 64)
		for i := range pts {
			pts[i] = geom.Pt(123, 456)
		}
		g.Build(pts)
		got := collect(g, geom.Square(geom.Pt(123, 456), 2))
		if len(got) != 64 {
			t.Fatalf("%s: found %d of 64 colocated entries", cfg.DisplayName(), len(got))
		}
		g.Update(7, geom.Pt(123, 456), geom.Pt(900, 900))
		// Queries are only defined after the snapshot is refreshed (the
		// driver does this at the start of the next tick); emulate it by
		// writing through the retained snapshot before probing.
		pts[7] = geom.Pt(900, 900)
		if g.csr != nil {
			g.Build(pts)
		}
		if got := collect(g, geom.Square(geom.Pt(900, 900), 2)); !got[7] || len(got) != 1 {
			t.Fatalf("%s: moved entry not found alone, got %v", cfg.DisplayName(), got)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Layout: LayoutInline, Scan: ScanRange, BS: 0, CPS: 4},
		{Layout: LayoutInline, Scan: ScanRange, BS: 4, CPS: 0},
		{Layout: Layout(9), Scan: ScanRange, BS: 4, CPS: 4},
		{Layout: LayoutInline, Scan: Scan(9), BS: 4, CPS: 4},
		// The CSR layouts answer by Algorithm 2 only.
		{Layout: LayoutCSR, Scan: ScanFull, BS: 1, CPS: 16},
		{Layout: LayoutCSRXY, Scan: ScanFull, BS: 1, CPS: 16},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
		if _, err := New(cfg, testBounds, 10); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
	if _, err := New(CPSTuned(), geom.R(0, 0, 10, 20), 10); err == nil {
		t.Error("non-square space accepted")
	}
	if _, err := New(CPSTuned(), geom.R(0, 0, 0, 0), 10); err == nil {
		t.Error("degenerate space accepted")
	}
}

// TestCSRCPSBound: the CSR layouts take cps up to MaxCSRCPS, whose last
// label is the largest uint32, and refuse one more with an error from
// Validate and from New, before anything is allocated. The other layouts
// have no such bound.
func TestCSRCPSBound(t *testing.T) {
	for _, layout := range []Layout{LayoutCSR, LayoutCSRXY} {
		at := Config{Layout: layout, Scan: ScanRange, BS: 1, CPS: MaxCSRCPS}
		if err := at.Validate(); err != nil {
			t.Errorf("%v at cps=MaxCSRCPS rejected: %v", layout, err)
		}
		past := at
		past.CPS++
		if err := past.Validate(); err == nil {
			t.Errorf("%v at cps=MaxCSRCPS+1 accepted", layout)
		}
		if _, err := New(past, testBounds, 10); err == nil {
			t.Errorf("New accepted %v at cps=MaxCSRCPS+1", layout)
		}
	}
	if err := (Config{Layout: LayoutInline, Scan: ScanRange, BS: 1, CPS: MaxCSRCPS + 1}).Validate(); err != nil {
		t.Errorf("inline layout at cps=MaxCSRCPS+1 rejected: %v", err)
	}
	// The last column's label, computed as the kernels compute it.
	m := newMapper(geom.R(0, 0, MaxCSRCPS, MaxCSRCPS), MaxCSRCPS, MaxCSRCPS<<columnShift)
	corner := []geom.Point{{X: MaxCSRCPS, Y: MaxCSRCPS}, {X: 1e30, Y: 1e30}}
	if got := m.labelOf(corner[0]); got != math.MaxUint32 {
		t.Errorf("last label at cps=MaxCSRCPS is %d, want %d", got, uint32(math.MaxUint32))
	}
	checkLabelTiers(t, "cps=MaxCSRCPS", &m, corner)
}

func TestPresetsMatchPaper(t *testing.T) {
	o := Original()
	if o.BS != 4 || o.CPS != 13 || o.Layout != LayoutLinked || o.Scan != ScanFull {
		t.Fatalf("Original preset diverges from the paper: %+v", o)
	}
	c := CPSTuned()
	if c.BS != 20 || c.CPS != 64 || c.Layout != LayoutInline || c.Scan != ScanRange {
		t.Fatalf("CPSTuned preset diverges from the paper: %+v", c)
	}
	chain := AblationChain()
	if len(chain) != 5 {
		t.Fatalf("ablation chain has %d steps, want 5", len(chain))
	}
	names := []string{"Simple Grid", "+restructured", "+querying", "+bs tuned", "+cps tuned"}
	for i, cfg := range chain {
		if cfg.DisplayName() != names[i] {
			t.Fatalf("chain[%d] = %q, want %q", i, cfg.DisplayName(), names[i])
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemoryFootprintOrdering(t *testing.T) {
	// Section 3.1: the restructuring must cut memory substantially (the
	// paper computes 32 -> 12 bytes per point at bs=4 plus directory).
	r := xrand.New(17)
	pts := randomPoints(r, 10000, testBounds)
	orig := MustNew(Original(), testBounds, len(pts))
	orig.Build(pts)
	refac := MustNew(Restructured(), testBounds, len(pts))
	refac.Build(pts)
	ob, rb := orig.MemoryBytes(), refac.MemoryBytes()
	if ob <= rb {
		t.Fatalf("original %d bytes must exceed refactored %d bytes", ob, rb)
	}
	if ratio := float64(ob) / float64(rb); ratio < 2 {
		t.Fatalf("restructuring should cut memory by >= 2x, got %.2fx (%d vs %d)", ratio, ob, rb)
	}
}

func TestMemoryGrowsWithPoints(t *testing.T) {
	r := xrand.New(19)
	for _, cfg := range []Config{Original(), CPSTuned()} {
		small := MustNew(cfg, testBounds, 100)
		small.Build(randomPoints(r, 100, testBounds))
		big := MustNew(cfg, testBounds, 10000)
		big.Build(randomPoints(r, 10000, testBounds))
		if small.MemoryBytes() >= big.MemoryBytes() {
			t.Fatalf("%s: memory did not grow with population", cfg.DisplayName())
		}
	}
}

// cellCounter wraps a bucket grid's store and counts the directory cells
// the query kernel hands it: every cell of every row appendRow covers, each
// of which the store puts through Algorithm 1's cell test.
type cellCounter struct {
	bucketStore
	cells int
}

func (cc *cellCounter) appendRow(r geom.Rect, base, xmin, xmax int, x cellWindow, buf []uint32) []uint32 {
	cc.cells += xmax - xmin + 1
	return cc.bucketStore.appendRow(r, base, xmin, xmax, x, buf)
}

func TestScanAlgorithmsAgree(t *testing.T) {
	// Algorithm 1 and Algorithm 2 must return identical results on the
	// same structure — the refactoring changes cost, not semantics — and
	// each must pay its own cost: Algorithm 1 tests all CPS² directory
	// cells, Algorithm 2 only the cells the query's corners span. A bucket
	// grid counts the cells its rows hand the store (cellCounter); a CSR
	// grid the cells of the rows of its run list (csrWalk), which must be
	// the list QueryAppend answers by: the same IDs in the same order.
	r := xrand.New(23)
	pts := randomPoints(r, 2000, testBounds)
	queries := make([]geom.Rect, 100)
	for i := range queries {
		queries[i] = geom.Square(geom.Pt(r.Range(-100, 1100), r.Range(-100, 1100)), r.Range(1, 250))
	}
	for _, layout := range []Layout{LayoutLinked, LayoutInline, LayoutInlineXY, LayoutIntrusive, LayoutCSR, LayoutCSRXY} {
		for _, scan := range []Scan{ScanFull, ScanRange} {
			cfg := Config{Layout: layout, Scan: scan, BS: 4, CPS: 13}
			if scan == ScanFull && (layout == LayoutCSR || layout == LayoutCSRXY) {
				continue // the CSR layouts answer by Algorithm 2 only (TestConfigValidation)
			}
			g := MustNew(cfg, testBounds, len(pts))
			g.Build(pts)
			cc, shift := &cellCounter{bucketStore: g.buckets}, uint(0) // a cell is 1<<shift of the mapper's x units
			if g.csr == nil {
				g.buckets = cc
			} else {
				shift = columnShift
			}
			for i, q := range queries {
				cc.cells = 0
				sameSet(t, collect(g, q), bruteQuery(pts, q), cfg.DisplayName()+" query "+itoa(i))
				visited := cc.cells
				if g.csr != nil {
					runs, cells := csrWalk(g, q, nil)
					_, _, qw := queryWindow(g, q)
					if got, list := g.QueryAppend(q, nil), g.csr.appendRunList(runs, qw, q, nil); !slices.Equal(got, list) {
						t.Fatalf("%s query %d %v: QueryAppend %v, the walk's run list %v", cfg.DisplayName(), i, q, got, list)
					}
					visited = cells
				}
				want := cfg.CPS * cfg.CPS
				if scan == ScanRange {
					s := g.mapper.spanOf(q)
					want = (int(s.x1)>>shift - int(s.x0)>>shift + 1) * int(s.y1-s.y0+1)
				}
				if visited != want {
					t.Fatalf("%s query %d %v: %d cells visited, want %d", cfg.DisplayName(), i, q, visited, want)
				}
			}
		}
	}
}

func TestLayoutsAgree(t *testing.T) {
	r := xrand.New(29)
	pts := randomPoints(r, 2000, testBounds)
	linked := MustNew(Config{Layout: LayoutLinked, Scan: ScanRange, BS: 4, CPS: 13}, testBounds, len(pts))
	inline := MustNew(Config{Layout: LayoutInline, Scan: ScanRange, BS: 4, CPS: 13}, testBounds, len(pts))
	xy := MustNew(Config{Layout: LayoutInlineXY, Scan: ScanRange, BS: 4, CPS: 13}, testBounds, len(pts))
	linked.Build(pts)
	inline.Build(pts)
	xy.Build(pts)
	for i := 0; i < 100; i++ {
		q := geom.Square(geom.Pt(r.Range(0, 1000), r.Range(0, 1000)), r.Range(1, 250))
		want := collect(linked, q)
		sameSet(t, collect(inline, q), want, "inline query "+itoa(i))
		sameSet(t, collect(xy, q), want, "xy query "+itoa(i))
	}
}

// queryIDs collects one grid query, sorted.
func queryIDs(g *Grid, r geom.Rect) []uint32 {
	var out []uint32
	g.Query(r, func(id uint32) { out = append(out, id) })
	slices.Sort(out)
	return out
}

// bucketConfigs covers every bucket layout (the CSR layouts have their own
// build tests in csr_test.go and csrxy_test.go) under both scan algorithms.
func bucketConfigs() []Config {
	return []Config{
		{Layout: LayoutInline, Scan: ScanRange, BS: 4, CPS: 16},
		{Layout: LayoutInline, Scan: ScanFull, BS: 20, CPS: 8},
		{Layout: LayoutInlineXY, Scan: ScanRange, BS: 7, CPS: 16},
		{Layout: LayoutLinked, Scan: ScanRange, BS: 4, CPS: 16},
		{Layout: LayoutLinked, Scan: ScanFull, BS: 3, CPS: 8},
		{Layout: LayoutIntrusive, Scan: ScanRange, BS: 4, CPS: 16},
	}
}

// TestBucketLayoutParallelBuildThenUpdate: in-place maintenance must keep
// working on a grid that Build left, at every layout and scan of
// parallelBuildConfigs. (The name is older than the grids' one build: the
// parallel drivers build these layouts by Build.)
func TestBucketLayoutParallelBuildThenUpdate(t *testing.T) {
	bounds := geom.R(0, 0, 3000, 3000)
	rng := xrand.New(17)
	base := randomPoints(rng, 6000, bounds)
	queries := []geom.Rect{bounds, bounds.Expand(100), geom.R(0, 0, 1, 1), geom.R(2999, 2999, 3000, 3000)}
	for i := 0; i < 28; i++ {
		c := geom.Pt(rng.Range(0, 3000), rng.Range(0, 3000))
		queries = append(queries, geom.Square(c, rng.Range(10, 700)))
	}

	for _, cfg := range bucketConfigs() {
		name := cfg.DisplayName()
		pts := slices.Clone(base)
		g := MustNew(cfg, bounds, len(pts))
		g.Build(pts)
		for i := 0; i < len(pts); i += 3 {
			np := geom.Pt(rng.Range(0, 3000), rng.Range(0, 3000))
			g.Update(uint32(i), pts[i], np)
			pts[i] = np
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("%s: after updates: %v", name, err)
		}
		for _, q := range queries {
			got, want := queryIDs(g, q), bruteQuery(pts, q)
			if len(got) != len(want) {
				t.Fatalf("%s: after updates query %v: %d ids, want %d", name, q, len(got), len(want))
			}
			for _, id := range got {
				if !want[id] {
					t.Fatalf("%s: after updates query %v returned %d", name, q, id)
				}
			}
		}
	}
}

// TestParallelBuildSmallPopulationFallsBack: on a small population,
// Build must answer a whole-space query with every id, at every layout and
// scan of bucketConfigs.
func TestParallelBuildSmallPopulationFallsBack(t *testing.T) {
	bounds := geom.R(0, 0, 100, 100)
	pts := randomPoints(xrand.New(3), 200, bounds)
	for _, cfg := range bucketConfigs() {
		g := MustNew(cfg, bounds, len(pts))
		g.Build(pts)
		if got := queryIDs(g, bounds); len(got) != len(pts) {
			t.Fatalf("%s: whole-space query returned %d ids, want %d", cfg.DisplayName(), len(got), len(pts))
		}
	}
}

func TestQueryOutsideSpace(t *testing.T) {
	r := xrand.New(31)
	pts := randomPoints(r, 200, testBounds)
	for _, cfg := range allConfigs() {
		g := MustNew(cfg, testBounds, len(pts))
		g.Build(pts)
		n := 0
		g.Query(geom.R(2000, 2000, 3000, 3000), func(uint32) { n++ })
		if n != 0 {
			t.Fatalf("%s: query outside space returned %d results", cfg.DisplayName(), n)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
