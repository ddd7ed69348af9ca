package main

import (
	"sync/atomic"

	"vfreq/internal/platform"
)

// hostMethod names the platform calls the counting decorator sees.
type hostMethod uint8

const (
	mListVMs hostMethod = iota
	mUsageUs
	mThreadID
	mLastCPU
	mCoreFreqMHz
	mSetMax
	mBatchSetMax
	mSetBurst
	mClearMax
	mReadMax
	nHostMethods
)

var hostMethodNames = [nHostMethods]string{
	"ListVMs", "UsageUs", "ThreadID", "LastCPU", "CoreFreqMHz",
	"SetMax", "BatchSetMax", "SetBurst", "ClearMax", "ReadMax",
}

// countingHost is a platform.Host decorator that counts every call and
// its errors and, while the tracer traces the current period, times the
// call and records it as a span under the open layer span. Counters are
// atomic: the controller's monitor workers call it concurrently.
//
// The optional capabilities (Topology, BatchQuotaWriter, QuotaReader)
// are forwarded exactly when the wrapped host has them — see wrapHost —
// so the controller takes the same code paths with and without the
// decorator.
type countingHost struct {
	inner platform.Host
	tr    *tracer // nil: count only

	calls, errs, ns [nHostMethods]atomic.Int64
	batchEntries    atomic.Int64
}

func (h *countingHost) begin() int64 {
	if h.tr != nil && h.tr.on.Load() {
		return h.tr.now()
	}
	return -1
}

func (h *countingHost) done(m hostMethod, t0 int64, err error) {
	h.calls[m].Add(1)
	if err != nil {
		h.errs[m].Add(1)
	}
	if t0 >= 0 {
		h.tr.record(spPlatform+spanName(m), h.tr.parent.Load(), t0)
		h.ns[m].Add(h.tr.now() - t0)
	}
}

func (h *countingHost) Node() platform.NodeInfo { return h.inner.Node() }

func (h *countingHost) ListVMs() ([]platform.VMInfo, error) {
	t := h.begin()
	v, err := h.inner.ListVMs()
	h.done(mListVMs, t, err)
	return v, err
}

func (h *countingHost) UsageUs(vm string, vcpu int) (int64, error) {
	t := h.begin()
	v, err := h.inner.UsageUs(vm, vcpu)
	h.done(mUsageUs, t, err)
	return v, err
}

func (h *countingHost) SetMax(vm string, vcpu int, quotaUs, periodUs int64) error {
	t := h.begin()
	err := h.inner.SetMax(vm, vcpu, quotaUs, periodUs)
	h.done(mSetMax, t, err)
	return err
}

func (h *countingHost) ClearMax(vm string, vcpu int) error {
	t := h.begin()
	err := h.inner.ClearMax(vm, vcpu)
	h.done(mClearMax, t, err)
	return err
}

func (h *countingHost) SetBurst(vm string, vcpu int, burstUs int64) error {
	t := h.begin()
	err := h.inner.SetBurst(vm, vcpu, burstUs)
	h.done(mSetBurst, t, err)
	return err
}

func (h *countingHost) ThreadID(vm string, vcpu int) (int, error) {
	t := h.begin()
	v, err := h.inner.ThreadID(vm, vcpu)
	h.done(mThreadID, t, err)
	return v, err
}

func (h *countingHost) LastCPU(tid int) (int, error) {
	t := h.begin()
	v, err := h.inner.LastCPU(tid)
	h.done(mLastCPU, t, err)
	return v, err
}

func (h *countingHost) CoreFreqMHz(core int) (int64, error) {
	t := h.begin()
	v, err := h.inner.CoreFreqMHz(core)
	h.done(mCoreFreqMHz, t, err)
	return v, err
}

// Capability forwarders, embedded beside *countingHost by wrapHost.

type topoFwd struct{ t platform.Topology }

func (f topoFwd) CoreNodes() ([]int, error) { return f.t.CoreNodes() }

type batchFwd struct {
	h *countingHost
	b platform.BatchQuotaWriter
}

func (f batchFwd) BatchSetMax(vm string, quotas []platform.VCPUQuota) error {
	t := f.h.begin()
	err := f.b.BatchSetMax(vm, quotas)
	f.h.batchEntries.Add(int64(len(quotas)))
	f.h.done(mBatchSetMax, t, err)
	return err
}

type readFwd struct {
	h *countingHost
	r platform.QuotaReader
}

func (f readFwd) ReadMax(vm string, vcpu int) (int64, int64, error) {
	t := f.h.begin()
	q, p, err := f.r.ReadMax(vm, vcpu)
	f.h.done(mReadMax, t, err)
	return q, p, err
}

// wrapHost decorates inner with a countingHost whose dynamic type has
// exactly inner's optional capabilities. tr may be nil (count only).
func wrapHost(inner platform.Host, tr *tracer) (platform.Host, *countingHost) {
	h := &countingHost{inner: inner, tr: tr}
	topo, isT := inner.(platform.Topology)
	bw, isB := inner.(platform.BatchQuotaWriter)
	qr, isQ := inner.(platform.QuotaReader)
	t, b, r := topoFwd{topo}, batchFwd{h, bw}, readFwd{h, qr}
	switch {
	case isT && isB && isQ:
		return struct {
			*countingHost
			topoFwd
			batchFwd
			readFwd
		}{h, t, b, r}, h
	case isT && isB:
		return struct {
			*countingHost
			topoFwd
			batchFwd
		}{h, t, b}, h
	case isT && isQ:
		return struct {
			*countingHost
			topoFwd
			readFwd
		}{h, t, r}, h
	case isB && isQ:
		return struct {
			*countingHost
			batchFwd
			readFwd
		}{h, b, r}, h
	case isT:
		return struct {
			*countingHost
			topoFwd
		}{h, t}, h
	case isB:
		return struct {
			*countingHost
			batchFwd
		}{h, b}, h
	case isQ:
		return struct {
			*countingHost
			readFwd
		}{h, r}, h
	}
	return h, h
}
