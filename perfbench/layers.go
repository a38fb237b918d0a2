package main

import (
	"sort"
)

// Sorter phase names as the sorters account them (core and stripesort
// share "load", "run formation" and "collect").
const (
	phaseInit      = "init" // from tcp.New until the sort's first phase
	phaseLoad      = "load"
	phaseRunForm   = "run formation"
	phaseSelection = "multiway selection"
	phaseExchange  = "all-to-all"
	phaseMerge     = "final merge" // core
	phaseSMerge    = "merge"       // stripesort
	phaseCollect   = "collect"
)

// perLayer reports the per-layer metrics as medians over the traced
// jobs. Within one job, times are the max over ranks, bytes and counts
// the sum.
func perLayer(w workload, seed uint64, plain, traced []*job) map[string]metric {
	samples := map[string][]float64{}
	units := map[string]string{}
	for _, j := range traced {
		for name, m := range jobLayers(w, j) {
			samples[name] = append(samples[name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]metric{}
	for name, vs := range samples {
		out[name] = metric{median(vs), units[name]}
	}

	psortNs, xmergeNs := microKernels(w, seed)
	out["psort.ns_per_rec"] = metric{psortNs, "ns/rec"}
	out["xmerge.ns_per_rec"] = metric{xmergeNs, "ns/rec"}

	var plainWall, tracedWall []float64
	for _, j := range plain {
		plainWall = append(plainWall, j.wallS)
	}
	for _, j := range traced {
		tracedWall = append(tracedWall, j.wallS)
	}
	out["trace.overhead_pct"] = metric{(median(tracedWall)/median(plainWall) - 1) * 100, "%"}
	return out
}

// jobLayers derives one traced job's per-layer metrics from its rank
// reports.
func jobLayers(w workload, j *job) map[string]metric {
	maxOf := func(f func(r workerReport) float64) float64 {
		var v float64
		for i, r := range j.reports {
			if x := f(r); i == 0 || x > v {
				v = x
			}
		}
		return v
	}
	sumOf := func(f func(r workerReport) float64) float64 {
		var v float64
		for _, r := range j.reports {
			v += f(r)
		}
		return v
	}
	wall := func(phase string) float64 { return maxOf(func(r workerReport) float64 { return r.PhaseWall[phase] }) }
	self := func(phase string) float64 {
		return maxOf(func(r workerReport) float64 { return r.PhaseWall[phase] - r.PhaseChild[phase] })
	}
	ctrMax := func(name string) float64 { return maxOf(func(r workerReport) float64 { return r.Counters[name] }) }
	ctrSum := func(name string) float64 { return sumOf(func(r workerReport) float64 { return r.Counters[name] }) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	m := map[string]metric{}
	s := func(name string, v float64) { m[name] = metric{v, "s"} }

	// core / stripesort: measured phase walls from Result.PerPE.
	s("core.load_s", wall(phaseLoad))
	s("core.collect_s", wall(phaseCollect))
	s("core.gap_s", maxOf(func(r workerReport) float64 {
		sum := 0.0
		for name, v := range r.PhaseWall {
			if name != phaseInit {
				sum += v
			}
		}
		return r.SortS - sum
	}))
	mergePhase := phaseMerge
	if w.striped {
		mergePhase = phaseSMerge
		s("core.runform_s", 0)
		s("core.selection_s", 0)
		s("core.exchange_s", 0)
		s("core.merge_s", 0)
		s("stripesort.runform_s", wall(phaseRunForm))
		s("stripesort.merge_s", wall(phaseSMerge))
	} else {
		s("core.runform_s", wall(phaseRunForm))
		s("core.selection_s", wall(phaseSelection))
		s("core.exchange_s", wall(phaseExchange))
		s("core.merge_s", wall(phaseMerge))
		s("stripesort.runform_s", 0)
		s("stripesort.merge_s", 0)
	}
	s("core.runform_self_s", self(phaseRunForm))
	s("core.merge_self_s", self(mergePhase))

	// cluster/tcp.
	connect := 0.0
	if w.ranks > 1 {
		connect = maxOf(func(r workerReport) float64 { return r.ConnectS })
	}
	s("tcp.connect_s", connect)
	s("tcp.a2a_s", ctrMax("tcp.a2a_s"))
	m["tcp.a2a_mb"] = metric{ctrSum("tcp.a2a_bytes") / 1e6, "MB"}
	m["tcp.a2a_gbps"] = metric{ratio(ctrSum("tcp.a2a_bytes")*8/1e9, ctrMax("tcp.a2a_s")), "Gbit/s"}
	s("tcp.stream_post_s", ctrMax("tcp.stream_post_s"))
	s("tcp.stream_collect_s", ctrMax("tcp.stream_collect_s"))
	m["tcp.stream_mb"] = metric{ctrSum("tcp.stream_bytes") / 1e6, "MB"}
	s("tcp.sync_s", ctrMax("tcp.sync_s"))
	m["tcp.calls"] = metric{ctrSum("tcp.calls"), "count"}

	// blockio.
	in := float64(w.inputBytes())
	s("blockio.read_s", ctrMax("store.read_s"))
	s("blockio.write_s", ctrMax("store.write_s"))
	m["blockio.read_mbps"] = metric{ratio(ctrSum("store.read_bytes")/1e6, ctrSum("store.read_s")), "MB/s"}
	m["blockio.write_mbps"] = metric{ratio(ctrSum("store.write_bytes")/1e6, ctrSum("store.write_s")), "MB/s"}
	m["blockio.read_passes"] = metric{ctrSum("store.read_bytes") / in, "x"}
	m["blockio.write_passes"] = metric{ctrSum("store.write_bytes") / in, "x"}
	m["blockio.ops"] = metric{ctrSum("store.ops"), "count"}

	// elem.
	s("elem.decode_s", ctrMax("elem.decode_s"))
	s("elem.encode_s", ctrMax("elem.encode_s"))
	s("elem.keys_s", ctrMax("elem.keys_s"))
	m["elem.decode_mb"] = metric{ctrSum("elem.decode_bytes") / 1e6, "MB"}
	m["elem.encode_mb"] = metric{ctrSum("elem.encode_bytes") / 1e6, "MB"}

	// Source / Sink.
	s("source.read_s", ctrMax("source.read_s"))
	s("sink.write_s", ctrMax("sink.write_s"))

	// Memory.
	m["membudget.peak_mb"] = metric{maxOf(func(r workerReport) float64 { return float64(r.PeakMemBytes) }) / 1e6, "MB"}
	m["go.alloc_mb"] = metric{sumOf(func(r workerReport) float64 { return float64(r.GoAllocBytes) }) / 1e6, "MB"}
	m["go.gc_cycles"] = metric{sumOf(func(r workerReport) float64 { return float64(r.GoGCCycles) }), "count"}
	return m
}

// median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
