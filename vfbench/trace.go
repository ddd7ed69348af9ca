package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"
)

// Span names: one per layer boundary the benchmark's own code crosses.
// The first block is the period root and the benchmark's own work, then
// one name per program layer call; the platform names are indexed by
// hostMethod so the Host decorator can record them directly.
type spanName uint8

const (
	spPeriod      spanName = iota // root: one measured period
	spDrive                       // bench.drive: fixture rewrite, event materialisation
	spCheck                       // bench.check: the correctness gate
	spAdvance                     // host.advance: Machine.Advance
	spProvision                   // host.provision: Manager.Provision/Destroy/Reconfigure
	spFailReads                   // host.failreads: Machine.FailReads/ClearFileFaults
	spFaultPlan                   // platform.faults: FaultyHost.Plan/Clear
	spStep                        // core.step: Controller.Step
	spCheckpoint                  // core.checkpoint: Controller.Checkpoint
	spClusterStep                 // cluster.step: Cluster.Step
	spDeploy                      // cluster.deploy
	spUndeploy                    // cluster.undeploy
	spMigrate                     // cluster.migrate
	spRebalance                   // cluster.rebalance
	spScrape                      // metrics.scrape: Registry.WriteText
	spPlatform                    // first platform.<method> span; + hostMethod
	nSpanNames    = spPlatform + spanName(nHostMethods)
)

var spanLabels = [nSpanNames]string{
	"period", "bench.drive", "bench.check", "host.advance", "host.provision",
	"host.failreads", "platform.faults", "core.step", "core.checkpoint",
	"cluster.step", "cluster.deploy", "cluster.undeploy", "cluster.migrate",
	"cluster.rebalance", "metrics.scrape",
}

func init() {
	for m := hostMethod(0); m < nHostMethods; m++ {
		spanLabels[spPlatform+spanName(m)] = "platform." + hostMethodNames[m]
	}
}

// span is one recorded interval, in nanoseconds since the tracer's
// origin. parent indexes the span buffer (-1 for a period root).
type span struct {
	start, end int64
	parent     int32
	period     int32
	name       spanName
}

// tracer keeps spans in a preallocated buffer. Platform spans arrive
// from the controller's monitor workers concurrently, so a slot is
// claimed with one atomic add; everything else runs on the benchmark's
// goroutine between Steps. When the buffer fills, the runner folds the
// finished periods into per-name totals between two periods (outside
// any period's timing) and starts over; the spans still buffered when
// the run ends are folded and, on request, written out.
type tracer struct {
	origin time.Time
	on     atomic.Bool  // tracing this period
	parent atomic.Int32 // span platform calls nest under
	n      atomic.Int64 // claimed slots
	buf    []span

	period int32 // current period number
	root   int32 // current period's root slot

	// Folded totals per span name, in nanoseconds.
	total, self [nSpanNames]int64
	count       [nSpanNames]int64
	periods     int64        // traced periods folded
	dropped     atomic.Int64 // spans lost to a full buffer mid-period

	order   []int32 // fold scratch: span indices sorted by (parent, start)
	covered []int64 // fold scratch: per slot, time its children cover
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), buf: make([]span, capacity),
		order: make([]int32, capacity), covered: make([]int64, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open claims a slot for a span starting now under parent and returns
// it; close fills in the end time. A full buffer yields -1.
func (t *tracer) open(name spanName, parent int32) int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.n.Add(-1)
		t.dropped.Add(1)
		return -1
	}
	t.buf[i] = span{start: t.now(), parent: parent, period: t.period, name: name}
	return int32(i)
}

func (t *tracer) close(i int32) {
	if i >= 0 {
		t.buf[i].end = t.now()
	}
}

// record stores a finished span [start, now) under parent.
func (t *tracer) record(name spanName, parent int32, start int64) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.n.Add(-1)
		t.dropped.Add(1)
		return
	}
	t.buf[i] = span{start: start, end: t.now(), parent: parent, period: t.period, name: name}
}

// beginPeriod opens period p's root span when traced is set; room
// guarantees the period's spans fit, folding the buffer first if not.
func (t *tracer) beginPeriod(p int, traced bool, room int) {
	t.on.Store(traced)
	if !traced {
		return
	}
	if int(t.n.Load())+room > len(t.buf) {
		t.fold()
	}
	t.period = int32(p)
	t.root = t.open(spPeriod, -1)
	t.parent.Store(t.root)
}

func (t *tracer) endPeriod() {
	if t.on.Load() {
		t.close(t.root)
		t.on.Store(false)
	}
}

// layer opens a top-level layer span under the period root and makes it
// the parent of platform calls until closed.
func (t *tracer) layer(name spanName) int32 {
	if !t.on.Load() {
		return -1
	}
	i := t.open(name, t.root)
	t.parent.Store(i)
	return i
}

func (t *tracer) endLayer(i int32) {
	if i >= 0 {
		t.close(i)
		t.parent.Store(t.root)
	}
}

// fold accumulates every buffered span's duration and self time (its
// duration minus the union of its children's intervals) and empties
// the buffer.
func (t *tracer) fold() {
	n := int32(t.n.Load())
	spans := t.buf[:n]
	order := t.order[:0]
	for i := int32(0); i < n; i++ {
		s := &spans[i]
		if s.end < s.start {
			continue // never closed
		}
		t.total[s.name] += s.end - s.start
		t.count[s.name]++
		if s.parent < 0 {
			t.periods++
		} else {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		if d := spans[a].parent - spans[b].parent; d != 0 {
			return int(d)
		}
		switch {
		case spans[a].start < spans[b].start:
			return -1
		case spans[a].start > spans[b].start:
			return 1
		}
		return 0
	})
	covered := t.covered[:n]
	clear(covered)
	for k := 0; k < len(order); {
		par := spans[order[k]].parent
		var cov, curS, curE int64
		curS, curE = -1, -1
		for ; k < len(order) && spans[order[k]].parent == par; k++ {
			c := spans[order[k]]
			if c.end < c.start {
				continue
			}
			if curE < 0 || c.start > curE {
				if curE >= 0 {
					cov += curE - curS
				}
				curS, curE = c.start, c.end
			} else if c.end > curE {
				curE = c.end
			}
		}
		if curE >= 0 {
			cov += curE - curS
		}
		covered[par] = cov
	}
	for i := int32(0); i < n; i++ {
		s := &spans[i]
		if s.end < s.start {
			continue
		}
		t.self[s.name] += s.end - s.start - covered[i]
	}
	t.order = order[:0]
	t.n.Store(0)
}

// writeSpans writes the buffered spans, one per line: period, name,
// parent slot, start and end in nanoseconds since the tracer's origin.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "slot\tperiod\tname\tparent\tstart_ns\tend_ns")
	for i, s := range t.buf[:t.n.Load()] {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.period, spanLabels[s.name], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
