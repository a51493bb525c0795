package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// perLayer lists the traced run's metrics in BENCHMARK.json order. A
// metric ending in _ms is busy time per op unless noted; every span name
// recorded under a replay has one, so the self times listed here plus
// unattributed_ms and the residual (server.self_ms or exp.self_ms) add up
// to traced.op_ms.
var perLayer = []struct{ name, unit string }{
	{"server.handler_ms.create_session", "ms"}, // mean per request of the endpoint
	{"server.handler_ms.list_concepts", "ms"},
	{"server.handler_ms.get_concept", "ms"},
	{"server.handler_ms.label", "ms"},
	{"server.handler_ms.add_traces", "ms"},
	{"server.handler_ms.get_session", "ms"},
	{"server.handler_ms.export_labels", "ms"},
	{"server.handler_ms.delete_session", "ms"},
	{"server.handler_ms.stream_events", "ms"},
	{"server.self_ms", "ms"},
	{"server.requests", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.resp_kb", "KB"}, // per request
	{"persist.snapshot_kb_per_session", "KB"},
	{"persist.wal_kb_per_op", "KB"},
	{"apiv1.decode_ms", "ms"},
	{"trace.read_ms", "ms"},
	{"trace.read_mb_per_s", "MB/s"},
	{"fa.read_ms", "ms"},
	{"fa.sim_ms", "ms"},
	{"fa.equivalent_ms", "ms"},
	{"concept.context_ms", "ms"},
	{"concept.build_ms", "ms"},
	{"concept.clone_ms", "ms"},
	{"concept.add_ms", "ms"},
	{"concept.snapshot_ms", "ms"},
	{"concept.add_new_class_ratio", "ratio"},
	{"concept.concepts", "count"},   // mean per built lattice
	{"concept.attributes", "count"}, // mean per built lattice
	{"concept.snapshot_kb", "KB"},   // mean per snapshot
	{"cable.new_session_ms", "ms"},
	{"cable.label_ms", "ms"},
	{"cable.inspect_ms", "ms"},
	{"cable.labels_per_session", "count"},
	{"stream.ingest_ms", "ms"},
	{"stream.events_per_s", "1/s"},
	{"stream.violation_ratio", "ratio"},
	{"xtrace.gen_ms", "ms"},
	{"learn.learn_ms", "ms"},
	{"learn.states", "count"}, // mean per row
	{"wellformed.check_ms", "ms"},
	{"exp.ref_builds_per_row", "count"},
	{"exp.self_ms", "ms"},
	{"strategy.expert_ms", "ms"},
	{"strategy.random_ms", "ms"},
	{"strategy.optimal_ms", "ms"},
	{"strategy.other_ms", "ms"},
	{"strategy.optimal_over_budget_ratio", "ratio"},
	{"mine.mine_ms", "ms"},
	{"core.debug_mined_ms", "ms"},
	{"core.relearn_ms", "ms"},
	{"obs.cache_hits", "count"},
	{"obs.cache_misses", "count"},
	{"obs.lattice_incr_adds", "count"},
	{"obs.stream_violations", "count"},
	{"obs.snapshot_saves", "count"},
	{"process.cpu_ms_per_op", "ms"},
	{"process.gc_cycles_per_op", "count"},
	{"process.steal_s", "s"},
	{"unattributed_ms", "ms"},
	{"traced.op_ms", "ms"},
	{"traced.overhead_ratio", "ratio"},
}

// maxExportSpans bounds the spans written to the export file.
const maxExportSpans = 50000

// export is the traced run's JSON file.
type export struct {
	Record     record             `json:"record"`
	Metrics    map[string]metric  `json:"metrics"`
	SelfMs     map[string]float64 `json:"self_ms_per_op"`
	Counts     map[string]float64 `json:"counts"`
	Obs        obs.Snapshot       `json:"obs"`
	UntracedMs float64            `json:"untraced_op_ms"`
	SpanCount  int                `json:"span_count"`
	Spans      []span             `json:"spans"`
}

// executeTraced measures the workload untraced once for the overhead
// baseline, then replays the same inputs with spans on.
func executeTraced(o options, e env, rec record) (result, record, error) {
	w, err := workloads[o.workload](e)
	if err != nil {
		return result{}, rec, err
	}
	base, err := measure(w, 1)
	if err != nil {
		return result{}, rec, err
	}

	e.tr, e.obs = newTracer(), obs.New()
	tr := e.tr
	if w, err = workloads[o.workload](e); err != nil {
		return result{}, rec, err
	}
	if err := w.setup(); err != nil {
		w.close()
		return result{}, rec, fmt.Errorf("setup: %w", err)
	}
	n := w.ops()
	m := measurement{lat: make([]time.Duration, n), attempted: n}
	probe := startNoise()
	for i := 0; i < n; i++ {
		id := tr.beginOp(i)
		d, err := w.do(i)
		tr.endOp(id)
		m.lat[i] = d
		if err != nil {
			m.fail(fmt.Sprintf("op %d", i), err)
		}
	}
	m.noise = probe.stop(n)
	checks, failed, err := w.finish()
	w.close()
	if err != nil {
		return result{}, rec, fmt.Errorf("final checks: %w", err)
	}
	m.attempted += checks
	for i := 0; i < failed; i++ {
		m.fail("final check", fmt.Errorf("failed"))
	}

	acc := tr.account()
	snap := e.obs.Snapshot()
	metrics := layerMetrics(acc, tr.counts, snap, m.noise, meanMs(base.lat))
	rec.Ops, rec.ErrorRatio, rec.Errors, rec.Noise = n, m.errorRatio(), m.errors, m.noise
	rec.Export = filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	ex := export{
		Record: rec, Metrics: metrics, Counts: tr.counts, Obs: snap,
		UntracedMs: meanMs(base.lat), SelfMs: map[string]float64{}, SpanCount: len(tr.spans),
		Spans: tr.spans[:min(len(tr.spans), maxExportSpans)],
	}
	for name, ns := range acc.selfNs {
		ex.SelfMs[name] = perOp(ns, acc.ops)
	}
	b, err := json.Marshal(ex)
	if err != nil {
		return result{}, rec, fmt.Errorf("encoding export: %w", err)
	}
	if err := os.WriteFile(rec.Export, b, 0o644); err != nil {
		return result{}, rec, fmt.Errorf("writing export: %w", err)
	}
	return result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}, rec, nil
}

func meanMs(lat []time.Duration) float64 {
	if len(lat) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return ms(sum) / float64(len(lat))
}

func perOp(ns int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives every per-layer metric from the accounting, the
// work counters and the program's own obs counters. Figures a workload
// does not exercise read 0.
func layerMetrics(acc accounting, counts map[string]float64, snap obs.Snapshot, n noise, untracedMs float64) map[string]metric {
	v := map[string]float64{}
	for name, ns := range acc.selfNs {
		v[name+"_ms"] = perOp(ns, acc.ops)
	}
	requests := 0.0
	for ep, h := range acc.handler {
		v["server.handler_ms."+ep] = perOp(h[0], int(h[1]))
		requests += float64(h[1])
	}
	if requests > 0 {
		v["server.self_ms"] = perOp(acc.residual(), acc.ops)
	} else {
		v["exp.self_ms"] = perOp(acc.residual(), acc.ops)
	}
	c := func(name string) float64 { return counts[name] }
	v["server.requests"] = requests
	v["server.cache_hit_ratio"] = ratio(c("server.cache_hits"), c("server.creates"))
	v["server.resp_kb"] = ratio(c("server.resp_bytes")/1024, requests)
	v["persist.snapshot_kb_per_session"] = ratio(c("persist.snap_bytes")/1024, c("persist.sessions"))
	v["persist.wal_kb_per_op"] = ratio(c("persist.wal_bytes")/1024, float64(acc.ops))
	v["trace.read_mb_per_s"] = ratio(c("trace.read_bytes")/1e6, float64(acc.selfNs["trace.read"])/1e9)
	v["concept.add_new_class_ratio"] = ratio(c("concept.new_classes"), c("concept.adds"))
	v["concept.concepts"] = ratio(c("concept.concepts"), c("concept.lattices"))
	v["concept.attributes"] = ratio(c("concept.attributes"), c("concept.lattices"))
	v["concept.snapshot_kb"] = ratio(c("concept.snapshot_bytes")/1024, c("concept.snapshots"))
	v["cable.labels_per_session"] = ratio(c("cable.labels"), c("server.creates"))
	v["stream.events_per_s"] = ratio(c("stream.events"), float64(acc.selfNs["stream.ingest"])/1e9)
	v["stream.violation_ratio"] = ratio(c("stream.violations"), c("stream.events"))
	if requests == 0 {
		v["learn.states"] = ratio(c("learn.states"), float64(acc.ops))
		v["exp.ref_builds_per_row"] = ratio(c("exp.ref_builds"), float64(acc.ops))
	}
	v["strategy.optimal_over_budget_ratio"] = ratio(c("strategy.optimal_over_budget"), c("strategy.optimal_runs"))
	v["obs.cache_hits"] = float64(snap.Counters["server.cache.hits"])
	v["obs.cache_misses"] = float64(snap.Counters["server.cache.misses"])
	v["obs.lattice_incr_adds"] = float64(snap.Counters["lattice.incr.adds"])
	v["obs.stream_violations"] = float64(snap.Counters["server.stream.violations"])
	v["obs.snapshot_saves"] = float64(snap.Counters["server.snapshot.save"])
	v["process.cpu_ms_per_op"] = n.CPUMsPerOp
	v["process.gc_cycles_per_op"] = n.GCCyclesPerOp
	v["process.steal_s"] = n.StealSeconds
	v["unattributed_ms"] = perOp(acc.unattrNs, acc.ops)
	v["traced.op_ms"] = perOp(acc.opNs, acc.ops)
	v["traced.overhead_ratio"] = ratio(v["traced.op_ms"], untracedMs) - 1

	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
