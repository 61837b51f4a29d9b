package epoch

import (
	"math"

	"repro/internal/geom"
)

// The epoch digest is a chained fold over the stream of published
// state: epoch 0 hashes the build snapshot in id order, and each
// published batch folds its moves in batch order on top of the previous
// epoch's digest. The fold functions are exported so tests can compute
// oracle digests independently and assert that every query observed
// exactly one published epoch.

// mix64 is the splitmix64 finalizer — the avalanche step the folds
// chain through.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashPoint(p geom.Point) uint64 {
	return mix64(uint64(math.Float32bits(p.X))<<32 | uint64(math.Float32bits(p.Y)))
}

func hashRect(r geom.Rect) uint64 {
	lo := uint64(math.Float32bits(r.MinX))<<32 | uint64(math.Float32bits(r.MinY))
	hi := uint64(math.Float32bits(r.MaxX))<<32 | uint64(math.Float32bits(r.MaxY))
	return mix64(mix64(lo) ^ hi)
}

// SnapshotDigestPoints is the epoch-0 digest of a point snapshot.
//
//joinlint:deterministic
func SnapshotDigestPoints(pts []geom.Point) uint64 {
	d := uint64(len(pts))
	for i := range pts {
		d = mix64(d ^ (uint64(i) + 1) ^ hashPoint(pts[i]))
	}
	return d
}

// SnapshotDigestBoxes is the epoch-0 digest of a box snapshot.
//
//joinlint:deterministic
func SnapshotDigestBoxes(rects []geom.Rect) uint64 {
	d := uint64(len(rects))
	for i := range rects {
		d = mix64(d ^ (uint64(i) + 1) ^ hashRect(rects[i]))
	}
	return d
}

// FoldMoves chains one published point batch onto a digest.
//
//joinlint:deterministic
func FoldMoves(d uint64, moves []geom.Move) uint64 {
	d = mix64(d ^ uint64(len(moves)))
	for i := range moves {
		d = mix64(d ^ (uint64(moves[i].ID) + 1) ^ hashPoint(moves[i].New))
	}
	return d
}

// FoldBoxMoves chains one published box batch onto a digest.
//
//joinlint:deterministic
func FoldBoxMoves(d uint64, moves []geom.BoxMove) uint64 {
	d = mix64(d ^ uint64(len(moves)))
	for i := range moves {
		d = mix64(d ^ (uint64(moves[i].ID) + 1) ^ hashRect(moves[i].New))
	}
	return d
}
