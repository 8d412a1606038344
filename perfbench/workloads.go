package main

import (
	"fmt"
	"sort"
	"time"

	"vransim/internal/ran"
	"vransim/internal/simd"
)

// workloads are the benchmark's serving workloads. Both also run the
// modeled uplink grid (uplink.go) and, when traced, the layer pass
// (layers.go). README.md records why each exists, what it bypasses and
// how the fixed rates and deadlines were chosen.
var workloads = map[string]*servingSpec{
	// cell-serve: one runtime at W512 APCM, 2 workers (one of them
	// reserved for URLLC), a URLLC cell of K=104 blocks and three eMBB
	// cells of K=512, noisy receptions recovered by HARQ, and eMBB MMPP
	// bursts about 4x above capacity in the heavy phase. Small-K
	// packing, lane fill under partial load, HARQ, class priority,
	// stealing, shedding and the burst predictor all work here; the
	// fronthaul does not.
	"cell-serve": {
		Width: simd.W512,
		Cells: []cellSpec{
			{K: 104, Class: ran.ClassURLLC, Window: 4},
			{K: 512, Class: ran.ClassEMBB, Window: 4},
			{K: 512, Class: ran.ClassEMBB, Window: 4},
			{K: 512, Class: ran.ClassEMBB, Window: 4},
		},
		Workers:       2,
		QueueDepth:    64,
		BatchWindow:   2 * time.Millisecond,
		Deadline:      40 * time.Millisecond,
		URLLCDeadline: 20 * time.Millisecond,
		CorruptRate:   0.15,
		Light: []cellLoad{
			{Rate: 30}, {Rate: 35}, {Rate: 35}, {Rate: 35},
		},
		Heavy: []cellLoad{
			{Rate: 200}, {Rate: 400, Burst: 4}, {Rate: 400, Burst: 4}, {Rate: 400, Burst: 4},
		},
	},
	// fleet-fronthaul: a coordinator and 2 shards of 1 worker each at
	// W256 over in-process fronthaul pipes. Cells route round-robin:
	// shard 0 serves the URLLC cell (K=512) and the K=6144 eMBB cell,
	// shard 1 the two K=2048 eMBB cells. Poisson arrivals in both
	// open-loop phases, eMBB far above capacity in the heavy one.
	// Routing, the int8 frame codec, the link, span shipping and the
	// fleet aggregate work here, at a second register width; small-K
	// packing and HARQ do little.
	"fleet-fronthaul": {
		Width: simd.W256,
		Cells: []cellSpec{
			{K: 512, Class: ran.ClassURLLC, Window: 2},
			{K: 2048, Class: ran.ClassEMBB, Window: 3},
			{K: 6144, Class: ran.ClassEMBB, Window: 3},
			{K: 2048, Class: ran.ClassEMBB, Window: 3},
		},
		Shards:        2,
		Workers:       1,
		QueueDepth:    16,
		BatchWindow:   10 * time.Millisecond,
		Deadline:      100 * time.Millisecond,
		URLLCDeadline: 50 * time.Millisecond,
		CorruptRate:   0.01,
		Light: []cellLoad{
			{Rate: 30}, {Rate: 30}, {Rate: 4}, {Rate: 30},
		},
		Heavy: []cellLoad{
			{Rate: 100}, {Rate: 400}, {Rate: 80}, {Rate: 400},
		},
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metricDef names one metric BENCHMARK.json declares.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run's result carries. The run
// also measures p99_ms.light and sim_minst_per_s and prints them in its
// table only: their spread across runs reached the 0.25 bound on the
// reference host (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
	{"goodput_mbps", "Mbit/s"},
	{"p50_ms.light", "ms"},
	{"p50_ms.heavy", "ms"},
	{"p99_ms.heavy", "ms"},
	{"miss_ratio.heavy", "ratio"},
	{"urllc_p99_ms.heavy", "ms"},
	{"modeled_uplink_us", "us"},
	{"modeled_cycles_per_bit", "cycles/bit"},
}

// decodeShapes are the (width, K) pairs the serving workloads decode;
// the layer pass times every one of them in both workloads.
var decodeShapes = []struct {
	W simd.Width
	K int
}{
	{simd.W512, 104}, {simd.W512, 512}, {simd.W256, 512}, {simd.W256, 2048}, {simd.W256, 6144},
}

// scalarKs are the distinct block sizes of decodeShapes.
func scalarKs() []int {
	var ks []int
	seen := map[int]bool{}
	for _, s := range decodeShapes {
		if !seen[s.K] {
			seen[s.K] = true
			ks = append(ks, s.K)
		}
	}
	return ks
}

// frameKs are the block sizes whose fronthaul frame codec is timed.
var frameKs = []int{2048, 6144}

// uplinkStages are the modeled pipeline stages reported per width.
var uplinkStages = []string{
	"ofdm", "demod", "descramble", "ratematch", "arrangement", "interleave",
	"gamma", "alpha", "beta+ext", "ext", "l2",
}

// metricStage turns a pipeline stage name into a metric name part.
func metricStage(s string) string {
	if s == "beta+ext" {
		return "beta_ext"
	}
	return s
}

func widthName(w simd.Width) string { return fmt.Sprintf("w%d", int(w)*8) }

// perLayer are the metrics a traced run prints.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"ran.submit_us.p50", "us"}, {"ran.submit_us.p99", "us"},
		{"ran.queue_ms.p50", "ms"}, {"ran.queue_ms.p99", "ms"},
		{"ran.batch_ms.p50", "ms"}, {"ran.batch_ms.p99", "ms"},
		{"ran.lane_occupancy", "ratio"}, {"ran.pack_fill", "ratio"},
		{"ran.decode_ms.p50", "ms"}, {"ran.decode_ms.p99", "ms"},
		{"ran.worker_util", "ratio"}, {"ran.iters_mean", "iters"},
		{"ran.allocs_per_decode", "allocs"},
		{"ran.crc_fail_ratio", "ratio"}, {"ran.harq_recovered_ratio", "ratio"},
		{"ran.harq_retry_ms.p99", "ms"},
		{"ran.reject_ratio.backlog", "ratio"}, {"ran.reject_ratio.deadline", "ratio"},
		{"ran.reject_ratio.shed", "ratio"},
		{"ran.drop_ratio.late", "ratio"}, {"ran.drop_ratio.expired", "ratio"},
		{"ran.drop_ratio.harq", "ratio"},
		{"ran.degraded_batch_ratio", "ratio"}, {"ran.embb_drop_share", "ratio"},
		{"ran.steals", "count"}, {"ran.compile_s", "s"},
	}
	for _, s := range decodeShapes {
		d = append(d,
			metricDef{fmt.Sprintf("turbo.decode_us_per_block.%s.k%d", widthName(s.W), s.K), "us"},
			metricDef{fmt.Sprintf("turbo.allocs_per_decode.%s.k%d", widthName(s.W), s.K), "allocs"})
	}
	for _, k := range scalarKs() {
		d = append(d, metricDef{fmt.Sprintf("turbo.scalar_us_per_block.k%d", k), "us"})
	}
	d = append(d,
		metricDef{"shard.submit_us.p50", "us"}, metricDef{"shard.submit_us.p99", "us"},
		metricDef{"fronthaul.route_us.p99", "us"}, metricDef{"fronthaul.encode_us.p99", "us"},
		metricDef{"fronthaul.ingest_us.p99", "us"},
		metricDef{"fronthaul.link_ms.p50", "ms"}, metricDef{"fronthaul.link_ms.p99", "ms"})
	for _, k := range frameKs {
		d = append(d,
			metricDef{fmt.Sprintf("fronthaul.frame_encode_ns.k%d", k), "ns"},
			metricDef{fmt.Sprintf("fronthaul.frame_decode_ns.k%d", k), "ns"})
	}
	d = append(d,
		metricDef{"fronthaul.bytes_per_block", "bytes"},
		metricDef{"shard.snapshot_ms", "ms"}, metricDef{"shard.spans_dropped", "count"},
		metricDef{"telemetry.trace_overhead_pct", "%"})
	for _, w := range simd.Widths {
		for _, s := range uplinkStages {
			d = append(d, metricDef{fmt.Sprintf("pipeline.cycles_per_bit.%s.%s", metricStage(s), widthName(w)), "cycles/bit"})
		}
	}
	for _, w := range simd.Widths {
		wn := widthName(w)
		d = append(d,
			metricDef{"core.arrangement_reduction." + wn, "ratio"},
			metricDef{"core.store_bits_per_cycle." + wn, "bits/cycle"},
			metricDef{"uarch.backend_bound.arrangement." + wn, "ratio"},
			metricDef{"uarch.ipc.arrangement." + wn, "IPC"},
			metricDef{"uarch.ipc.alpha." + wn, "IPC"},
			metricDef{"uarch.ipc.beta_ext." + wn, "IPC"},
			metricDef{"pipeline.apcm_latency_reduction." + wn, "ratio"})
	}
	return append(d,
		metricDef{"simd.trace_ns_per_inst", "ns"}, metricDef{"uarch.sim_ns_per_inst", "ns"},
		metricDef{"gen.lag_ms.p99", "ms"}, metricDef{"go.gc_pause_ms", "ms"})
}()
