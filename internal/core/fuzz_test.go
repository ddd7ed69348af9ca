package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes through the checkpoint
// decoder. The property under test is the crash-safety contract: a
// corrupted checkpoint must never panic the recovering controller, and
// anything the decoder accepts must re-encode to an equally valid
// checkpoint.
func FuzzDecodeSnapshot(f *testing.F) {
	// Seed with a real checkpoint from a live controller plus the classic
	// malformed shapes.
	h := newFakeHost()
	h.addVM("web", 2, 500)
	h.addVM("batch", 4, 1200)
	if c, err := New(h, DefaultConfig()); err == nil {
		for i := 0; i < 3; i++ {
			h.consume("web", 0, 200_000)
			h.consume("batch", 1, 600_000)
			if err := c.Step(); err != nil {
				break
			}
		}
		if raw, err := c.Snapshot().JSON(); err == nil {
			f.Add(raw)
			f.Add(raw[:len(raw)/2]) // truncated mid-object
		}
	}
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"version":2,"step":1}`)) // pre-breaker version: rejected
	f.Add([]byte(`{"version":3,"step":-1}`))
	f.Add([]byte(`{"version":3,"cores":4,"max_freq_mhz":2400,"period_us":1000000,` +
		`"vms":[{"name":"a","freq_mhz":99999}]}`))
	f.Add([]byte(`{"version":3,"cores":4,"max_freq_mhz":2400,"period_us":1000000,` +
		`"vms":[{"name":"a","freq_mhz":500,"vcpus":[{"index":7}]}]}`))
	f.Add([]byte(`{"version":3,"cores":4,"max_freq_mhz":2400,"period_us":1000000,` +
		`"vms":[{"name":"a","freq_mhz":500,"breaker":1}]}`)) // open with no window left
	f.Add([]byte(`{"version":3,"cores":4,"max_freq_mhz":2400,"period_us":1000000,` +
		`"vms":[{"name":"a","freq_mhz":500,"breaker":7}]}`)) // unknown phase

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data) // must not panic, whatever the input
		if err != nil {
			return
		}
		raw, err := s.JSON()
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if _, err := DecodeSnapshot(raw); err != nil {
			t.Fatalf("re-encoded valid checkpoint rejected: %v", err)
		}
	})
}

// fuzzByteStream doles bytes out of a fuzz payload, padding with zeros
// once the payload runs dry, so any input decodes to a valid market.
type fuzzByteStream struct {
	data []byte
	pos  int
}

func (s *fuzzByteStream) byte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *fuzzByteStream) u16() uint16 {
	return binary.LittleEndian.Uint16([]byte{s.byte(), s.byte()})
}

// FuzzAuction drives arbitrary buyer populations — estimates, caps and
// wallets — through the auction (Algorithm 1). The property under test
// is its conservation contract: it may not panic, mint, leak or
// double-sell cycles, overdraw a wallet, or cap a vCPU beyond its
// estimate or below its pre-auction (Eq. 5) base.
//
// Payload layout: a VM-count byte and one skipped byte; per VM a
// vCPU-count byte and a wallet u16; per vCPU a cap u16, a headroom u16
// and one skipped byte; then the market u16. The skipped bytes once
// chose shard placements and are still consumed, so existing corpus
// entries decode to the same populations.
func FuzzAuction(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 200, 16, 39, 2, 1, 0, 0, 4, 4})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 128, 7, 6, 5, 4, 3, 2, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzByteStream{data: data}
		nVMs := int(s.byte())%6 + 1
		s.byte()
		h := newFakeHost()
		credits := make([]int64, nVMs)
		for i := range credits {
			h.addVM(fmt.Sprintf("vm%d", i), int(s.byte())%4+1, 1200)
			credits[i] = int64(s.u16()) * 32 // 0 .. ~2.1M
		}
		c, err := New(h, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}

		var caps0, credits0 int64
		base := map[*VCPUState]int64{}
		for i, vs := range c.VMs() {
			vs.CreditUs = credits[i]
			credits0 += vs.CreditUs
			for _, v := range vs.VCPUs {
				v.CapUs = int64(s.u16()) * 8 // 0 .. ~520k
				v.EstUs = v.CapUs + int64(s.u16())*8
				s.byte()
				base[v] = v.CapUs
				caps0 += v.CapUs
			}
		}
		market := int64(s.u16()) * 32
		left := c.auction(market)

		if left < 0 || left > market {
			t.Fatalf("leftover %d outside [0, %d]", left, market)
		}
		var caps, credits1 int64
		for _, vs := range c.VMs() {
			if vs.CreditUs < 0 {
				t.Fatalf("wallet of %s overdrawn: %d", vs.Info.Name, vs.CreditUs)
			}
			credits1 += vs.CreditUs
			for _, v := range vs.VCPUs {
				if v.CapUs > v.EstUs {
					t.Fatalf("%s/%d bought beyond estimate", v.VM, v.Index)
				}
				if v.CapUs < base[v] {
					t.Fatalf("%s/%d dropped below its base cap", v.VM, v.Index)
				}
				caps += v.CapUs
			}
		}
		sold := market - left
		if caps-caps0 != sold {
			t.Fatalf("cycles minted or leaked: Δcaps %d, sold %d", caps-caps0, sold)
		}
		if credits0-credits1 != sold {
			t.Fatalf("wallet debits %d ≠ cycles bought %d", credits0-credits1, sold)
		}
	})
}

// FuzzAdoptVM feeds arbitrary JSON through the migration adoption path
// on a live controller. The property is the same crash-safety contract
// DecodeSnapshot honours: a malformed snapshot must never panic or
// corrupt the target — on error the controller is unchanged, and on
// success the adopted VM re-exports as a snapshot the validator accepts.
func FuzzAdoptVM(f *testing.F) {
	h := newFakeHost()
	h.addVM("web", 2, 1200)
	if c, err := New(h, DefaultConfig()); err == nil {
		for i := 0; i < 3; i++ {
			h.consume("web", 0, 200_000)
			h.consume("web", 1, 150_000)
			if err := c.Step(); err != nil {
				break
			}
		}
		if snap, err := c.ExportVM("web"); err == nil {
			if raw, err := json.Marshal(snap); err == nil {
				f.Add(raw)
			}
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"web"}`))
	f.Add([]byte(`{"name":"web","freq_mhz":1200,"credit_us":-5}`))
	f.Add([]byte(`{"name":"web","freq_mhz":1200,"breaker":1}`)) // open, no window
	f.Add([]byte(`{"name":"web","freq_mhz":1200,"vcpus":[{"index":3}]}`))
	f.Add([]byte(`{"name":"ghost","freq_mhz":1200}`)) // not provisioned
	f.Add([]byte(`{"name":"web","freq_mhz":99999}`))  // above F_MAX
	f.Add([]byte(`{"name":"web","freq_mhz":1200,"vcpus":[{"index":0,"hist":[-1]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap VMSnapshot
		// Partial decodes still stress the validator: adopt whatever the
		// decoder managed to fill in before erroring.
		_ = json.Unmarshal(data, &snap)

		tgt := newFakeHost()
		tgt.addVM("web", 2, 1200)
		ct, err := New(tgt, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := ct.AdoptVM(snap); err != nil { // must not panic
			if ct.VM(snap.Name) != nil {
				t.Fatalf("failed adoption left %q tracked", snap.Name)
			}
			return
		}
		re, err := ct.ExportVM(snap.Name)
		if err != nil {
			t.Fatalf("adopted VM does not re-export: %v", err)
		}
		node := tgt.Node()
		if err := validateVMSnapshot(re, node.MaxFreqMHz, DefaultConfig().PeriodUs); err != nil {
			t.Fatalf("adopted VM re-exports an invalid snapshot: %v", err)
		}
		if err := ct.Step(); err != nil {
			t.Fatalf("controller cannot step after adoption: %v", err)
		}
	})
}
