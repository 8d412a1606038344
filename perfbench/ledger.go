package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"vransim/internal/ran"
	"vransim/internal/turbo"
)

// blockRec is the benchmark's own record of one offered block. The
// generator fills the plain fields before it submits the block; decode
// workers only touch the atomics, after the submit has published the
// block to them.
type blockRec struct {
	due  time.Duration // scheduled send time, from the ledger epoch
	sent time.Duration // when Submit was called
	cell int
	pool int
	// rejected is set when the target refused the block at the door
	// (known synchronously only on a single runtime).
	rejected bool

	crcOK atomic.Bool  // a decode of this block matched the truth payload
	done  atomic.Int64 // delivery time in ns from the epoch, +1 (0 = none)
	wrong atomic.Bool  // delivered bits differ from the truth payload
}

const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	maxChunks = 1 << 10
)

// target is the system under test as the generator sees it.
type target interface {
	// submit offers block seq for cell with the cell's K and the given
	// pool word; false means refused at the door.
	submit(seq, cell int, w *turbo.LLRWord) bool
	// counters returns the current aggregate runtime counters.
	counters() counters
}

// counters is the aggregate runtime snapshot the ledger checks, the
// per-runtime snapshots it was folded from, and the decode busy time a
// snapshot only carries as a utilization.
type counters struct {
	snap   *ran.Snapshot
	per    []*ran.Snapshot
	busyNs float64
}

// ledger tracks every block the benchmark offers: its due time, its
// fate as seen from the runtime's own hooks, and the truth payload the
// delivered bits must match.
type ledger struct {
	epoch  time.Time
	chunks [maxChunks]atomic.Pointer[[chunkSize]blockRec]
	n      int // records handed out (generator goroutine only)

	// truth returns a cell's pool word i and its payload bits.
	truth func(cell, i int) (*turbo.LLRWord, []byte)

	callbacks []atomic.Int64 // per-cell delivered+late hook calls
	wake      chan struct{}  // one-slot edge trigger for the closed loop
	unknown   atomic.Int64   // hook calls for blocks the ledger never issued
}

func newLedger(cells int, truth func(cell, i int) (*turbo.LLRWord, []byte)) *ledger {
	return &ledger{
		epoch:     time.Now(),
		truth:     truth,
		callbacks: make([]atomic.Int64, cells),
		wake:      make(chan struct{}, 1),
	}
}

func (l *ledger) since(t time.Time) time.Duration { return t.Sub(l.epoch) }

// issue hands out the next record. Generator goroutine only.
func (l *ledger) issue() (int, *blockRec) {
	seq := l.n
	c := seq >> chunkBits
	if c >= maxChunks {
		panic("perfbench: ledger full")
	}
	if l.chunks[c].Load() == nil {
		l.chunks[c].Store(new([chunkSize]blockRec))
	}
	l.n++
	return seq, &l.chunks[c].Load()[seq&(chunkSize-1)]
}

// rec returns record seq, or nil if it was never issued.
func (l *ledger) rec(seq int) *blockRec {
	if seq < 0 || seq>>chunkBits >= maxChunks {
		return nil
	}
	ch := l.chunks[seq>>chunkBits].Load()
	if ch == nil {
		return nil
	}
	return &ch[seq&(chunkSize-1)]
}

// checkCRC is the runtime's CheckCRC hook: a decode passes iff its
// bits equal the block's truth payload. The block's UE is its ledger
// sequence number.
func (l *ledger) checkCRC(b *ran.Block, bits []byte) bool {
	r := l.rec(b.UE)
	if r == nil {
		l.unknown.Add(1)
		return false
	}
	_, truth := l.truth(r.cell, r.pool)
	if !bytes.Equal(truth, bits) {
		return false
	}
	r.crcOK.Store(true)
	return true
}

// onDecoded is the runtime's OnDecoded hook. The runtime calls it for
// delivered blocks (which passed checkCRC) and for late ones (which
// skip the check), so crcOK tells the two apart; a late block stays
// undelivered in the ledger.
func (l *ledger) onDecoded(b *ran.Block, bits []byte) {
	now := time.Now()
	r := l.rec(b.UE)
	if r == nil {
		l.unknown.Add(1)
		return
	}
	if r.crcOK.Load() {
		_, truth := l.truth(r.cell, r.pool)
		if !bytes.Equal(truth, bits) {
			r.wrong.Store(true)
		}
		r.done.Store(int64(l.since(now)) + 1)
	}
	l.callbacks[r.cell].Add(1)
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// span is a contiguous range of ledger sequence numbers (one phase).
type span struct{ lo, hi int }

// openLoop submits sched from a single goroutine, each block at its
// due time (start + At) regardless of how the system keeps up. A
// cell's i-th block carries its pool word i. When timed is set, the
// wall time of every submit call is returned in microseconds.
func (l *ledger) openLoop(t target, sched []arrival, timed bool) (span, []float64) {
	sp := span{lo: l.n}
	var submitUs []float64
	if timed {
		submitUs = make([]float64, 0, len(sched))
	}
	next := make([]int, len(l.callbacks))
	start := time.Now()
	for _, a := range sched {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		seq, r := l.issue()
		r.due, r.cell = l.since(due), a.Cell
		r.pool = next[a.Cell]
		next[a.Cell]++
		w, _ := l.truth(a.Cell, r.pool)
		t0 := time.Now()
		r.sent = l.since(t0)
		ok := t.submit(seq, a.Cell, w)
		if timed {
			submitUs = append(submitUs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		r.rejected = !ok
	}
	sp.hi = l.n
	return sp, submitUs
}

// closedLoop keeps window[c] blocks outstanding for cell c until done
// reports true: a cell sends its next block only when one of its
// blocks has finished (delivered, late, or dropped by the runtime).
// Drops are read from the runtime counters, polled every pollEvery;
// deliveries wake the loop at once. done is checked after every wake.
func (l *ledger) closedLoop(t target, window []int, done func() bool) span {
	const pollEvery = 2 * time.Millisecond
	sp := span{lo: l.n}
	cells := len(l.callbacks)
	base := t.counters().snap
	cb0 := make([]int64, cells)
	for c := range cb0 {
		cb0[c] = l.callbacks[c].Load()
	}
	sent := make([]int, cells)
	next := make([]int, cells)
	dropped := make([]uint64, cells)
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for !done() {
		for c := 0; c < cells; c++ {
			finished := int(l.callbacks[c].Load()-cb0[c]) + int(dropped[c])
			for sent[c]-finished < window[c] {
				seq, r := l.issue()
				now := l.since(time.Now())
				r.due, r.sent, r.cell = now, now, c
				r.pool = next[c]
				next[c]++
				w, _ := l.truth(c, r.pool)
				r.rejected = !t.submit(seq, c, w)
				sent[c]++
			}
		}
		select {
		case <-l.wake:
		case <-tick.C:
			cur := t.counters().snap
			for c := 0; c < cells && c < len(cur.Cells); c++ {
				// Late drops also reach onDecoded, so they are already
				// counted as callbacks.
				dropped[c] = cur.Cells[c].Dropped() - cur.Cells[c].Drops[ran.DropLate] -
					(base.Cells[c].Dropped() - base.Cells[c].Drops[ran.DropLate])
			}
		}
	}
	sp.hi = l.n
	return sp
}

// drain waits until every block submitted so far has reached a
// terminal outcome in the runtime counters (delivered or dropped,
// door rejections included) and every delivered or late block has also
// been through the onDecoded hook, which the runtime calls after it
// counts the block; it fails after timeout.
func (l *ledger) drain(t target, offered uint64, timeout time.Duration) (counters, error) {
	end := time.Now().Add(timeout)
	for {
		c := t.counters()
		s := c.snap
		var hooked uint64
		for i := range l.callbacks {
			hooked += uint64(l.callbacks[i].Load())
		}
		if s.Accepted+rejects(s) >= offered && s.Delivered+postDrops(s) == s.Accepted &&
			hooked == s.Delivered+s.Drops[ran.DropLate] {
			return c, nil
		}
		if time.Now().After(end) {
			return c, fmt.Errorf("drain: %d offered, %d accepted + %d rejected, %d delivered + %d dropped, %d decode hooks after %v",
				offered, s.Accepted, rejects(s), s.Delivered, postDrops(s), hooked, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rejects counts door rejections: blocks the runtime never accepted.
func rejects(s *ran.Snapshot) uint64 {
	return s.Drops[ran.DropBacklog] + s.Drops[ran.DropAdmission] + s.Drops[ran.DropShed]
}

// postDrops counts accepted blocks that were never delivered.
func postDrops(s *ran.Snapshot) uint64 {
	return s.Drops[ran.DropExpired] + s.Drops[ran.DropLate] + s.Drops[ran.DropHARQ] + s.Drops[ran.DropShutdown]
}

// phaseOutcome is what the ledger saw of one phase's blocks.
type phaseOutcome struct {
	offered, delivered, missed int
	wrong                      int // delivered with bits differing from the truth
	latMs                      []float64
	latClassMs                 [ran.NumClasses][]float64
	lagMs                      []float64
	doneAt                     []time.Duration // delivery times
	doneBits                   []float64       // and their information bits
}

// outcome folds the records of sp. A block misses unless it was
// delivered within its class deadline counted from its due time.
func (l *ledger) outcome(sp span, cls func(cell int) ran.Class, kOf func(cell int) int, deadline func(ran.Class) time.Duration) phaseOutcome {
	var o phaseOutcome
	for seq := sp.lo; seq < sp.hi; seq++ {
		r := l.rec(seq)
		c := cls(r.cell)
		o.offered++
		if r.sent > r.due {
			o.lagMs = append(o.lagMs, ms(r.sent-r.due))
		} else {
			o.lagMs = append(o.lagMs, 0)
		}
		if r.wrong.Load() {
			o.wrong++
		}
		d := r.done.Load()
		if d == 0 {
			o.missed++
			continue
		}
		done := time.Duration(d - 1)
		lat := done - r.due
		o.delivered++
		o.latMs = append(o.latMs, ms(lat))
		o.latClassMs[c] = append(o.latClassMs[c], ms(lat))
		o.doneAt = append(o.doneAt, done)
		o.doneBits = append(o.doneBits, float64(kOf(r.cell)))
		if lat > deadline(c) {
			o.missed++
		}
	}
	return o
}

// windowedGoodput is the delivered information rate of closed-loop
// saturation slices, windowed on completions: in each slice, from the
// completion that ends the first tenth of its deliveries to its last
// completion, so neither a ramp-up nor an idle tail is counted. It
// returns the bits of all windows over their summed length, and the
// completions counted.
func windowedGoodput(slices ...phaseOutcome) (mbps float64, n int) {
	type ev struct {
		at   time.Duration
		bits float64
	}
	var bits, secs float64
	for _, o := range slices {
		evs := make([]ev, len(o.doneAt))
		for i := range evs {
			evs[i] = ev{o.doneAt[i], o.doneBits[i]}
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
		if len(evs) < 20 {
			continue
		}
		first := len(evs) / 10
		for _, e := range evs[first+1:] {
			bits += e.bits
		}
		n += len(evs) - first - 1
		secs += (evs[len(evs)-1].at - evs[first].at).Seconds()
	}
	if secs <= 0 {
		return 0, n
	}
	return bits / secs / 1e6, n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pctl is a percentile with the evidence behind it: the sample count
// and how many samples lie beyond it. A percentile is supported when
// at least ten samples lie beyond it.
type pctl struct {
	Value  float64
	N      int
	Beyond int
}

// Supported applies the ≥10-samples-beyond rule.
func (p pctl) Supported() bool { return p.Beyond >= 10 }

// percentile returns the nearest-rank q-quantile of vals (which it
// sorts in place).
func percentile(vals []float64, q float64) pctl {
	p := pctl{N: len(vals)}
	if len(vals) == 0 {
		return p
	}
	sort.Float64s(vals)
	r := int(math.Ceil(q * float64(len(vals))))
	if r < 1 {
		r = 1
	}
	if r > len(vals) {
		r = len(vals)
	}
	p.Value = vals[r-1]
	p.Beyond = len(vals) - r
	return p
}

// median of vals (sorted in place); 0 when empty.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}
