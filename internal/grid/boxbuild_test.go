package grid

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// The box builds count and scatter spans of at most 2×2 cells in straight
// line code (countFlat, scatterFlat) up to the first wider span, and with
// the loops from there. These tests hold both grids' arenas, from Build,
// equal as arrays to the arena the loops alone build.

// boxArena is a box grid's arena as compared: starts, then BoxGrid2L's
// pair-major class run ends (none for BoxGrid), then the IDs.
type boxArena struct {
	starts, ends, ids []uint32
}

func (a boxArena) equal(b boxArena) bool {
	return slices.Equal(a.starts, b.starts) && slices.Equal(a.ends, b.ends) && slices.Equal(a.ids, b.ids)
}

func (a boxArena) diff(b boxArena) string {
	for _, f := range []struct {
		name string
		x, y []uint32
	}{{"starts", a.starts, b.starts}, {"ends", a.ends, b.ends}, {"ids", a.ids, b.ids}} {
		if len(f.x) != len(f.y) {
			return fmt.Sprintf("%s: %d entries, reference %d", f.name, len(f.x), len(f.y))
		}
		for i := range f.x {
			if f.x[i] != f.y[i] {
				return fmt.Sprintf("%s[%d] = %d, reference %d", f.name, i, f.x[i], f.y[i])
			}
		}
	}
	return "equal"
}

// loopArenaBox is BoxGrid's arena over rects built by nested loops over
// every span's cells, once to count and once to place in ID order.
func loopArenaBox(m cellMapper, rects []geom.Rect) boxArena {
	cps := m.cps
	counts := make([]uint32, cps*cps)
	spans := make([]cellSpan, len(rects))
	for i, r := range rects {
		spans[i] = m.spanOf(r)
	}
	for _, s := range spans {
		for cy := int(s.y0); cy <= int(s.y1); cy++ {
			for cx := int(s.x0); cx <= int(s.x1); cx++ {
				counts[cy*cps+cx]++
			}
		}
	}
	starts := make([]uint32, len(counts)+1)
	cur := make([]uint32, len(counts))
	for c, n := range counts {
		cur[c] = starts[c]
		starts[c+1] = starts[c] + n
	}
	ids := make([]uint32, starts[len(counts)])
	for i, s := range spans {
		for cy := int(s.y0); cy <= int(s.y1); cy++ {
			for cx := int(s.x0); cx <= int(s.x1); cx++ {
				c := cy*cps + cx
				ids[cur[c]] = uint32(i)
				cur[c]++
			}
		}
	}
	return boxArena{starts, nil, ids}
}

// loopArena2L is BoxGrid2L's arena over rects built by countSpan and
// scatterSpan alone, the loops that define the classed build.
func loopArena2L(m cellMapper, rects []geom.Rect) boxArena {
	cps, cells := m.cps, m.cps*m.cps
	half := 2 * cells
	spans := make([]cellSpan, len(rects))
	for i, r := range rects {
		spans[i] = m.spanOf(r)
	}
	counts := make([]uint32, 4*cells)
	for _, s := range spans {
		countSpan(counts[:half:half], counts[half:], s, cps)
	}
	starts, ends := make([]uint32, cells+1), make([]uint32, 4*cells)
	ids := make([]uint32, prefixClassedCursors(counts, starts, ends, cells))
	for i, s := range spans {
		scatterSpan(ends[:half:half], ends[half:], s, cps, uint32(i), ids)
	}
	return boxArena{starts, ends, ids}
}

// checkBoxBuilds builds both grids over rects with Build, and fails unless
// each arena equals the loops' and each audit is nil.
func checkBoxBuilds(t *testing.T, name string, cps int, bounds geom.Rect, rects []geom.Rect) {
	t.Helper()
	m := testMapper(cps, bounds)
	wantBox, want2L := loopArenaBox(m, rects), loopArena2L(m, rects)
	bg := MustNewBoxGrid(cps, bounds, len(rects))
	bg2 := MustNewBoxGrid2L(cps, bounds, len(rects))
	bg.Build(rects)
	bg2.Build(rects)
	if got := (boxArena{bg.starts, nil, bg.ids}); !got.equal(wantBox) {
		t.Fatalf("%s: boxcsr: %s", name, got.diff(wantBox))
	}
	if got := (boxArena{bg2.starts, bg2.ends, bg2.ids}); !got.equal(want2L) {
		t.Fatalf("%s: boxcsr2l: %s", name, got.diff(want2L))
	}
	if err := bg.CheckInvariants(); err != nil {
		t.Fatalf("%s: boxcsr: %v", name, err)
	}
	if err := bg2.CheckInvariants(); err != nil {
		t.Fatalf("%s: boxcsr2l: %v", name, err)
	}
}

// cellsRect is a rectangle whose span is columns [x0, x1] and rows
// [y0, y1] of a cps grid over bounds; past the last column or row it
// reaches out of the space and clamps into it.
func cellsRect(bounds geom.Rect, cps, x0, y0, x1, y1 int) geom.Rect {
	cs := bounds.Width() / float32(cps)
	return geom.R(bounds.MinX+(float32(x0)+0.25)*cs, bounds.MinY+(float32(y0)+0.25)*cs,
		bounds.MinX+(float32(x1)+0.75)*cs, bounds.MinY+(float32(y1)+0.75)*cs)
}

// flatShapes returns one rect of each flat span shape (1×1, 2×1, 1×2,
// 2×2) starting at every cell, the last column and row included, where
// the wider shapes clamp back to one cell.
func flatShapes(bounds geom.Rect, cps int) []geom.Rect {
	var out []geom.Rect
	for cy := 0; cy < cps; cy++ {
		for cx := 0; cx < cps; cx++ {
			for _, d := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
				out = append(out, cellsRect(bounds, cps, cx, cy, cx+d[0], cy+d[1]))
			}
		}
	}
	return out
}

// wideRects are spans the flat path must hand to the loops: three cells
// on either axis or both, the whole space, and inverted on x, y and
// both (no cell) — across cells and, on x, across the whole space.
func wideRects(bounds geom.Rect, cps int) []geom.Rect {
	out := []geom.Rect{
		cellsRect(bounds, cps, 0, 0, 2, 0), cellsRect(bounds, cps, 1, 0, 1, 2),
		cellsRect(bounds, cps, cps-3, cps-3, cps-1, cps-1), bounds,
	}
	up := cellsRect(bounds, cps, 0, 0, 2, 2)
	out = append(out,
		geom.Rect{MinX: up.MaxX, MinY: up.MinY, MaxX: up.MinX, MaxY: up.MaxY},
		geom.Rect{MinX: up.MinX, MinY: up.MaxY, MaxX: up.MaxX, MaxY: up.MinY},
		geom.Rect{MinX: up.MaxX, MinY: up.MaxY, MaxX: up.MinX, MaxY: up.MinY},
		geom.Rect{MinX: bounds.MaxX, MinY: up.MinY, MaxX: bounds.MinX, MaxY: up.MaxY})
	return out
}

func TestBoxBuildFlatEveryShapeAtEveryCell(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	for _, cps := range []int{1, 2, 3, 7, 16} {
		shapes := flatShapes(bounds, cps)
		reversed := slices.Clone(shapes)
		slices.Reverse(reversed)
		shuffled := slices.Clone(shapes)
		r := xrand.New(uint64(cps))
		for i := len(shuffled) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		for name, rects := range map[string][]geom.Rect{"in order": shapes, "reversed": reversed, "shuffled": shuffled} {
			checkBoxBuilds(t, fmt.Sprintf("cps=%d/%s", cps, name), cps, bounds, rects)
		}
	}
}

// TestBoxBuildWideSpanPlacement puts each wide span first, in the middle
// and last of a flat population, and leaves it out: the flat kernels must
// stop at it and the loops take the rest in ID order.
func TestBoxBuildWideSpanPlacement(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	const cps = 8
	r := xrand.New(3)
	flat := append(flatShapes(bounds, cps), randomBoxes(r, 400, bounds, 0, 60)...)
	checkBoxBuilds(t, "absent", cps, bounds, flat)
	for i, wide := range wideRects(bounds, cps) {
		for _, at := range []int{0, len(flat) / 2, len(flat)} {
			rects := slices.Insert(slices.Clone(flat), at, wide)
			checkBoxBuilds(t, fmt.Sprintf("wide %d %v at %d", i, wide, at), cps, bounds, rects)
		}
	}
}

// TestBoxBuildFlatCountWidths covers both count widths of the classed
// grid, the uint16 plane up to maxUint16Boxes rects and the uint32 one
// past it, with the wide spans spread over the IDs and one early in each
// eighth of them. Sides up to 150 against 125-unit cells make every other
// span flat.
func TestBoxBuildFlatCountWidths(t *testing.T) {
	bounds := geom.R(0, 0, 4000, 4000)
	const cps = 32
	r := xrand.New(17)
	wides := wideRects(bounds, cps)
	for _, n := range []int{4097, 6000, maxUint16Boxes, maxUint16Boxes + 1} {
		rects := randomBoxes(r, n, bounds, 0, 150)
		for i, wide := range wides {
			rects[(i+1)*n/(len(wides)+1)] = wide
			rects[i*n/8+i+3] = wide
		}
		checkBoxBuilds(t, fmt.Sprintf("n=%d", n), cps, bounds, rects)
	}
}

// boxFuzzBounds is FuzzBoxBuild's space.
var boxFuzzBounds = geom.R(0, 0, 1000, 1000)

// maxFuzzRects caps FuzzBoxBuild's population, and with it the replicas
// of far-out rects spanning all 64² cells, to keep an input's builds
// within a few milliseconds.
const maxFuzzRects = 256

// encodeRects is FuzzBoxBuild's input encoding: each rect's MinX, MinY,
// MaxX, MaxY as little-endian float32 bits.
func encodeRects(rects ...geom.Rect) []byte {
	var out []byte
	for _, r := range rects {
		for _, f := range [4]float32{r.MinX, r.MinY, r.MaxX, r.MaxY} {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(f))
		}
	}
	return out
}

// FuzzBoxBuild holds both grids' Build against the loops' arena over
// arbitrary rect lists: every float32 bit pattern, so inverted, NaN,
// infinite and far-out rects alongside the flat and wide spans of the
// seed corpus.
func FuzzBoxBuild(f *testing.F) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	b := boxFuzzBounds
	f.Add(uint8(7), encodeRects(flatShapes(b, 7)...))
	f.Add(uint8(48), encodeRects(append(flatShapes(b, 3), wideRects(b, 48)...)...))
	f.Add(uint8(16), encodeRects(wideRects(b, 16)...))
	f.Add(uint8(13), encodeRects(
		geom.Rect{MinX: 600, MinY: 100, MaxX: 400, MaxY: 120}, geom.Rect{MinX: 100, MinY: 600, MaxX: 120, MaxY: 400},
		geom.Rect{MinX: 600, MinY: 600, MaxX: 400, MaxY: 400}, geom.Rect{MinX: 5000, MinY: 10, MaxX: -5000, MaxY: 20},
		geom.R(10, 10, 20, 20)))
	f.Add(uint8(9), encodeRects(
		geom.Rect{MinX: nan, MinY: 5, MaxX: 50, MaxY: 60}, geom.Rect{MinX: 5, MinY: 5, MaxX: nan, MaxY: nan},
		geom.Rect{MinX: 400, MinY: nan, MaxX: 500, MaxY: inf}, geom.R(10, 10, 200, 20)))
	f.Add(uint8(32), encodeRects(
		geom.R(-1e30, -1e30, 1e30, 1e30), geom.R(-300, -300, -200, -200), geom.R(900, 900, 1080, 1080),
		geom.Rect{MinX: -inf, MinY: -inf, MaxX: 50, MaxY: 60}, geom.R(1000, 1000, 1000, 1000), geom.R(0, 0, 0, 0)))
	f.Fuzz(func(t *testing.T, side uint8, data []byte) {
		cps := 1 + int(side)%64
		rects := make([]geom.Rect, min(len(data)/16, maxFuzzRects))
		for i := range rects {
			v := func(k int) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(data[16*i+4*k:])) }
			rects[i] = geom.Rect{MinX: v(0), MinY: v(1), MaxX: v(2), MaxY: v(3)}
		}
		m := testMapper(cps, boxFuzzBounds)
		bg := MustNewBoxGrid(cps, boxFuzzBounds, len(rects))
		bg.Build(rects)
		if got, want := (boxArena{bg.starts, nil, bg.ids}), loopArenaBox(m, rects); !got.equal(want) {
			t.Fatalf("boxcsr cps=%d: %s", cps, got.diff(want))
		}
		bg2 := MustNewBoxGrid2L(cps, boxFuzzBounds, len(rects))
		bg2.Build(rects)
		if got, want := (boxArena{bg2.starts, bg2.ends, bg2.ids}), loopArena2L(m, rects); !got.equal(want) {
			t.Fatalf("boxcsr2l cps=%d: %s", cps, got.diff(want))
		}
		if err := bg.CheckInvariants(); err != nil {
			t.Fatalf("boxcsr cps=%d: %v", cps, err)
		}
		if err := bg2.CheckInvariants(); err != nil {
			t.Fatalf("boxcsr2l cps=%d: %v", cps, err)
		}
	})
}
