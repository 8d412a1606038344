package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"vransim/internal/ran"
	"vransim/internal/turbo"
)

func TestScheduleRepeatsForSeed(t *testing.T) {
	loads := []cellLoad{{Rate: 300}, {Rate: 200, Burst: 4}}
	a := schedule(loads, 2*time.Second, 7, "light")
	b := schedule(loads, 2*time.Second, 7, "light")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(loads, 2*time.Second, 8, "light")) {
		t.Fatal("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, schedule(loads, 2*time.Second, 7, "heavy")) {
		t.Fatal("different phases gave the same schedule")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].At < a[j].At }) {
		t.Fatal("schedule not sorted by due time")
	}
}

func TestScheduleMeanRates(t *testing.T) {
	loads := []cellLoad{{Rate: 400}, {Rate: 400, Burst: 4}}
	const dur = 20 * time.Second
	per := make([]int, len(loads))
	for _, a := range schedule(loads, dur, 3, "heavy") {
		if a.At < 0 || a.At >= dur {
			t.Fatalf("arrival at %v outside [0, %v)", a.At, dur)
		}
		per[a.Cell]++
	}
	for c, n := range per {
		got := float64(n) / dur.Seconds()
		if got < 0.9*loads[c].Rate || got > 1.1*loads[c].Rate {
			t.Errorf("cell %d: mean rate %.0f/s, want %.0f/s ±10%%", c, got, loads[c].Rate)
		}
	}
}

// fakeTarget serves every block synchronously through the ledger's
// hooks, the way a runtime's worker would, after an optional stall.
// Refused blocks never reach the hooks; dropped ones are accepted but
// never delivered.
type fakeTarget struct {
	l       *ledger
	stallAt int           // seq whose submit stalls
	stall   time.Duration // how long
	refuse  func(seq int) bool
	drop    func(seq int) bool
}

func (f *fakeTarget) submit(seq, cell int, w *turbo.LLRWord) bool {
	if f.refuse != nil && f.refuse(seq) {
		return false
	}
	if seq == f.stallAt {
		time.Sleep(f.stall)
	}
	if f.drop != nil && f.drop(seq) {
		return true
	}
	b := &ran.Block{Cell: cell, UE: seq}
	_, bits := f.l.truth(cell, f.l.rec(seq).pool)
	if f.l.checkCRC(b, bits) {
		f.l.onDecoded(b, bits)
	}
	return true
}

func (f *fakeTarget) counters() counters { return counters{snap: &ran.Snapshot{}} }

func testLedger(t *testing.T) *ledger {
	t.Helper()
	pool, err := ran.NewWordPool(40, 4, wordAmp, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return newLedger(1, func(_, i int) (*turbo.LLRWord, []byte) { return pool.Get(i) })
}

func evenSchedule(n int, gap time.Duration) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{At: time.Duration(i) * gap}
	}
	return out
}

func outcomeOf(l *ledger, sp span, deadline time.Duration) phaseOutcome {
	return l.outcome(sp,
		func(int) ran.Class { return ran.ClassEMBB },
		func(int) int { return 40 },
		func(ran.Class) time.Duration { return deadline })
}

func TestStalledConsumerShowsAsLagAndMisses(t *testing.T) {
	l := testLedger(t)
	const stall = 60 * time.Millisecond
	f := &fakeTarget{l: l, stallAt: 10, stall: stall}
	sp, _ := l.openLoop(f, evenSchedule(40, time.Millisecond), false)
	o := outcomeOf(l, sp, 20*time.Millisecond)
	if o.offered != 40 || o.delivered != 40 {
		t.Fatalf("offered %d delivered %d, want 40 and 40", o.offered, o.delivered)
	}
	// Blocks due during the stall are sent late: the generator lag
	// shows it, and their latency counts from the due time.
	lag := percentile(append([]float64(nil), o.lagMs...), 0.99)
	if lag.Value < 30 {
		t.Errorf("generator lag p99 %.1f ms, want at least 30 ms behind a %v stall", lag.Value, stall)
	}
	if o.missed < 20 {
		t.Errorf("%d misses, want the ~30 blocks due during the stall to miss a 20 ms deadline", o.missed)
	}
	for seq := sp.lo; seq < sp.lo+10; seq++ {
		if r := l.rec(seq); time.Duration(r.done.Load()-1)-r.due > 20*time.Millisecond {
			t.Errorf("block %d before the stall took %v", seq, time.Duration(r.done.Load()-1)-r.due)
		}
	}
}

func TestRejectedOrDroppedBlockIsAMiss(t *testing.T) {
	l := testLedger(t)
	f := &fakeTarget{l: l, stallAt: -1,
		refuse: func(seq int) bool { return seq%4 == 1 }, // rejected or shed at the door
		drop:   func(seq int) bool { return seq%4 == 2 }, // accepted, dropped later
	}
	sp, _ := l.openLoop(f, evenSchedule(40, 0), false)
	rejected := 0
	for seq := sp.lo; seq < sp.hi; seq++ {
		if l.rec(seq).rejected {
			rejected++
		}
	}
	o := outcomeOf(l, sp, time.Second)
	if o.offered != 40 || rejected != 10 || o.delivered != 20 || o.missed != 20 {
		t.Fatalf("offered %d rejected %d delivered %d missed %d, want 40/10/20/20",
			o.offered, rejected, o.delivered, o.missed)
	}
	if len(o.latMs) != o.delivered {
		t.Fatalf("%d latencies for %d deliveries: misses must not enter the latency sample", len(o.latMs), o.delivered)
	}
}

func TestWrongBitsAreCaught(t *testing.T) {
	l := testLedger(t)
	sp, _ := l.openLoop(&fakeTarget{l: l, stallAt: -1}, evenSchedule(3, 0), false)
	r := l.rec(sp.lo)
	_, truth := l.truth(0, r.pool)
	bad := append([]byte(nil), truth...)
	bad[0] ^= 1
	b := &ran.Block{UE: sp.lo}
	if l.checkCRC(b, bad) {
		t.Fatal("checkCRC accepted bits that differ from the truth payload")
	}
	l.onDecoded(b, bad)
	if o := outcomeOf(l, sp, time.Second); o.wrong != 1 {
		t.Fatalf("wrong = %d, want 1 for a delivery whose bits differ from the truth", o.wrong)
	}
	if l.checkCRC(&ran.Block{UE: 1 << 30}, truth); l.unknown.Load() != 1 {
		t.Fatal("a block the ledger never issued was not flagged")
	}
}

func TestPercentileReportsSampleCount(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(1000 - i)
	}
	p := percentile(vals, 0.99)
	if p.Value != 990 || p.N != 1000 || p.Beyond != 10 || !p.Supported() {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, n 1000, 10 beyond, supported", p)
	}
	p = percentile(vals[:999], 0.99)
	if p.N != 999 || p.Beyond != 9 || p.Supported() {
		t.Fatalf("p99 of 999 samples = %+v, want 9 beyond and unsupported", p)
	}
	if p := percentile(nil, 0.5); p.N != 0 || p.Supported() {
		t.Fatalf("empty percentile = %+v", p)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestWindowedGoodputSkipsRampUp(t *testing.T) {
	var o phaseOutcome
	// 100 completions of 1000 bits, one per millisecond: 1 Mbit/s.
	for i := 0; i < 100; i++ {
		o.doneAt = append(o.doneAt, time.Duration(i)*time.Millisecond)
		o.doneBits = append(o.doneBits, 1000)
	}
	mbps, n := windowedGoodput(o)
	if n != 89 || mbps < 0.999 || mbps > 1.001 {
		t.Fatalf("goodput %.4f Mbit/s over %d completions, want 1 over 89", mbps, n)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// the benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, benchmark prints %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.Name || c.json[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.what, i, c.json[i].Name, c.json[i].Unit, d.Name, d.Unit)
			}
		}
	}
}
