package shard

import "repro/internal/obs"

// instruments is the shard engines' instrument set. Each engine
// (Index, BoxIndex, Concurrent, BoxConcurrent) owns one value in its
// env, which every region points at, so per-region events aggregate
// into engine-level series. All fields stay nil until
// Instrument binds a registry — every record below is then a nil-check
// no-op, per the internal/obs hot-path contract.
type instruments struct {
	// fanout observes the number of regions each query touched.
	fanout *obs.Histogram
	// dedupFiltered counts box candidates dropped by the
	// boundary-ownership test (a replica reporting from a region that
	// does not own the intersection's reference point).
	dedupFiltered *obs.Counter
	// parked and revived count the two halves of cross-region
	// migrations (source parks the slot, destination revives one).
	parked, revived *obs.Counter
	// side reports the region-grid side once the first build fixes it.
	side *obs.Gauge
}

func (i *instruments) bind(r *obs.Registry) {
	if r == nil {
		return
	}
	i.fanout = r.Histogram("shard.query_fanout")
	i.dedupFiltered = r.Counter("shard.dedup_filtered")
	i.parked = r.Counter("shard.parked")
	i.revived = r.Counter("shard.revived")
	i.side = r.Gauge("shard.side")
}

// Instrument implements obs.Instrumentable for the stop-the-world
// routers.
func (x *router[P, M]) Instrument(r *obs.Registry) {
	x.ins.bind(r)
	if x.side >= 1 {
		x.ins.side.Set(int64(x.side))
	}
}

// Instrument implements obs.Instrumentable for the sharded epoch
// compositions: the engine binds its own fan-out/migration series and
// keeps the registry to hand to each per-region epoch wrapper at
// Build, so the wrappers' lifecycle events aggregate into the shared
// "epoch.*" series.
func (x *conc[P, M]) Instrument(r *obs.Registry) {
	x.reg = r
	x.ins.bind(r)
	for _, sh := range x.shards {
		sh.Instrument(r)
	}
}
