package tune

// The shard-count ladder: how many regions per axis the region-sharded
// engine (internal/shard) should partition the space into. Sharding wins
// by shrinking each shard's directory and arena to cache-resident sizes
// and by letting builds parallelize across independent shards,
// but every extra region a query's window straddles costs one more
// fan-out probe — so the ladder is climbed only while both the per-shard
// population stays worth indexing and the expected per-query fan-out
// stays near one.

// shardSideLadder lists the candidate region-grid sides. Powers of two
// keep region edges exactly representable for the usual origin-anchored
// square spaces.
var shardSideLadder = [...]int{1, 2, 4, 8}

const (
	// minShardPop is the smallest average per-shard population worth a
	// dedicated index; below it the fixed per-shard overheads (directory,
	// tune sampling, routing) dominate whatever locality is gained.
	minShardPop = 2048
	// maxQueryFanout bounds the expected number of regions a query
	// window straddles (windows dilated by the mean object extent for box
	// workloads). 4 permits a 2x2 straddle on average — beyond that the
	// merge overhead erodes the per-shard cache win.
	maxQueryFanout = 4.0
)

// ChooseShardSide walks the shard-count ladder against the sampled
// workload statistics and returns the regions-per-axis the region-sharded
// engine should use: the largest ladder rung whose average per-shard
// population stays above minShardPop and whose expected per-query region
// fan-out stays within maxQueryFanout. workers is the parallelism the
// engine will run under; a single-threaded caller still benefits from
// smaller per-shard working sets, so workers only caps the ladder when
// it is 0/1 and the population barely clears one rung (no parallel win
// to pay the routing tax for).
func ChooseShardSide(s Stats, workers int) int {
	s = s.sanitize()
	side := s.Space.Width()
	window := float64(s.QuerySide + s.MeanSide)
	best := 1
	for _, g := range shardSideLadder {
		if g > 1 {
			if s.N/(g*g) < minShardPop {
				break
			}
			fan := 1 + window*float64(g)/float64(side)
			if fan*fan > maxQueryFanout {
				break
			}
		}
		best = g
	}
	if workers <= 1 && best > 1 && s.N/(best*best) < 2*minShardPop {
		best /= 2
	}
	return best
}
