package channel

import (
	"testing"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem/dram"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// perturb applies one decoded edit to c. Geometry stays small — at most
// 16 channels (16 bus lanes of 256KB epoch rings each) and 64 banks per
// channel — so no case allocates more than a few MB, while every field
// still reaches values Validate must reject.
func perturb(c *Config, field, v byte) {
	switch field % 21 {
	case 0:
		c.Channels = int(v % 17)
	case 1:
		c.BanksPerChannel = int(v % 65)
	case 2:
		c.RowBytes = 32 * uint64(v) // 0, 32, 64, 96, ...
	case 3:
		c.OpenPage = v&1 == 1
	case 4:
		c.Timing.TRCDNs = float64(v) / 4
	case 5:
		c.Timing.TCLNs = float64(v) / 4
	case 6:
		c.Timing.TRPNs = float64(v) / 4
	case 7:
		c.Timing.TRASNs = float64(v) / 4
	case 8:
		c.LaneGBs = float64(v) / 4
	case 9:
		c.LinkPair = v&1 == 1
	case 10:
		c.Latency = uint64(v)
	case 11:
		c.PacketBytes = int(v % 129)
	case 12:
		c.UnitsPerChannel = int(v % 65)
	case 13, 14, 15, 16:
		c.Cost[field%21-13] = uint64(v % 33)
	case 17:
		c.CycleMult = uint64(v % 17)
	case 18:
		c.AlignGrant = v&1 == 1
	case 19:
		c.StageLatency = uint64(v)
	case 20:
		c.Functional = v&1 == 1
	}
}

// FuzzChannelConfig explores the config surface: edit decodes in
// (field, value) byte pairs into perturbations of one default row, and
// whenever Validate accepts the result, New, a short request mix and
// the audit must neither panic nor fail — a config Validate lets
// through is one the machine may build. The script decodes as in
// FuzzBackendAudit (mem/backends): 3-byte steps of request and time
// advance, address, and atomic op.
func FuzzChannelConfig(f *testing.F) {
	for i := range Rows() {
		f.Add(uint8(i), []byte{}, []byte{0, 1, 0, 9, 2, 3, 2, 3, 5, 3, 4, 7, 4, 5, 11, 5, 6, 0, 255, 7, 13})
	}
	f.Fuzz(func(t *testing.T, sel uint8, edit, script []byte) {
		defs := Rows()
		cfg := defs[int(sel)%len(defs)]
		for i := 0; i+1 < len(edit); i += 2 {
			perturb(&cfg, edit[i], edit[i+1])
		}
		if cfg.Validate() != nil {
			return
		}
		s := cfg.New(sim.NewStats()).(*System)
		var now uint64
		for i := 0; i+2 < len(script) && i < 3*256; i += 3 {
			ctl, a, o := script[i], script[i+1], script[i+2]
			if adv := uint64(ctl >> 3); adv == 31 {
				now += dram.EpochSlots * dram.EpochCycles
			} else {
				now += adv
			}
			addr := memmap.Addr(uint64(a)<<9 | uint64(o&7)<<3)
			switch ctl & 7 {
			case 0, 1:
				s.ReadLine(memmap.LineAddr(addr), now)
			case 2:
				s.WriteLine(memmap.LineAddr(addr), now)
			case 3:
				s.UCRead(addr, now)
			case 4:
				if ack := s.UCWrite(addr, now); ack < now {
					t.Fatalf("UCWrite at %d acknowledged at %d", now, ack)
				}
			case 5, 6:
				if op := hmcatomic.Op(int(o>>3) % hmcatomic.NumOps); s.CanOffload(op) {
					if tm := s.Atomic(op, addr, hmcatomic.Value{}, now); tm.Accepted < now || tm.ResponseAt < tm.Accepted {
						t.Fatalf("Atomic at %d: accepted %d, response %d", now, tm.Accepted, tm.ResponseAt)
					}
				}
			case 7:
				if s.CanOffloadBundle() {
					if tm := s.AtomicBundle(addr, now); tm.Accepted < now || tm.ResponseAt < tm.Accepted {
						t.Fatalf("AtomicBundle at %d: accepted %d, response %d", now, tm.Accepted, tm.ResponseAt)
					}
				}
			}
		}
		if err := s.Audit(now); err != nil {
			t.Fatalf("%+v: audit at %d: %v", cfg, now, err)
		}
	})
}
