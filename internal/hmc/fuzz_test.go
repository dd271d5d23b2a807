package hmc

import (
	"testing"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// FuzzFUSlack checks the cube certificate: a request sequence served by
// a cube with one integer FU count (1..16) and link scale records a
// Slack, and every FU count and link scale of the Fig. 11 and Fig. 13
// sweeps that the slack admits must return the same timing for every
// request when a fresh cube serves the same sequence.
//
// The script decodes in triples: a time advance of 0..7 cycles, a
// target (one of four vaults, any of its banks, a few rows, so that
// ops pile onto few FUs) and a command (every HMC atomic, the FP
// extension included, or a line read that loads the links).
func FuzzFUSlack(f *testing.F) {
	f.Add(uint8(15), uint8(1), []byte{0, 0, 0, 0, 4, 0, 0, 8, 0, 0, 12, 0})
	f.Add(uint8(3), uint8(0), []byte{0, 1, 8, 0, 5, 8, 0, 9, 8, 1, 13, 7, 0, 17, 7})
	f.Add(uint8(0), uint8(2), []byte{2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	f.Add(uint8(7), uint8(1), []byte{0, 0, 0, 0, 4, 0, 0, 8, 0, 0, 12, 0, 0, 16, 0, 0, 20, 0,
		0, 24, 0, 0, 28, 0, 0, 32, 0, 0, 36, 0, 0, 40, 0})
	scales := []float64{0.5, 1, 2}
	f.Fuzz(func(t *testing.T, fuSel, scaleSel uint8, script []byte) {
		type request struct {
			now  uint64
			addr memmap.Addr
			op   hmcatomic.Op
			read bool
		}
		var seq []request
		var now uint64
		for i := 0; i+2 < len(script) && i < 3*1024; i += 3 {
			now += uint64(script[i] % 8)
			tgt, cmd := uint64(script[i+1]), script[i+2]
			// Vault in bits 6-7, bank in bits 11-14, row above.
			addr := memmap.Addr(tgt&3<<6 | tgt>>2<<11)
			seq = append(seq, request{now, addr, hmcatomic.Op(int(cmd/8) % hmcatomic.NumOps), cmd%8 == 7})
		}
		serve := func(cfg Config) ([]timing, Slack) {
			c := New(cfg, sim.NewStats())
			out := make([]timing, len(seq))
			for i, r := range seq {
				if r.read {
					out[i].latency = c.ReadLine(r.addr, r.now)
				} else {
					t := c.Atomic(r.op, r.addr, hmcatomic.Value{}, r.now)
					out[i].accepted, out[i].response = t.Accepted, t.ResponseAt
				}
			}
			return out, c.Slack()
		}
		from := DefaultConfig()
		from.IntFUsPerVault = 1 + int(fuSel)%16
		from.LinkBWScale = scales[int(scaleSel)%len(scales)]
		want, slack := serve(from)
		if slack.MaxIntFUsBusy > from.IntFUsPerVault {
			t.Fatalf("%d of %d FUs busy", slack.MaxIntFUsBusy, from.IntFUsPerVault)
		}
		for fus := 1; fus <= 16; fus++ {
			for _, scale := range scales {
				to := from
				to.IntFUsPerVault, to.LinkBWScale = fus, scale
				if to == from || !slack.Admits(from, to) {
					continue
				}
				got, _ := serve(to)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("slack %+v admits %d FUs at link scale %g from %d at %g, but request %d (%+v) returned %+v, want %+v",
							slack, fus, scale, from.IntFUsPerVault, from.LinkBWScale, i, seq[i], got[i], want[i])
					}
				}
			}
		}
	})
}

// timing is one request's returned timing: a line read's latency or an
// atomic's acceptance and response cycles.
type timing struct{ latency, accepted, response uint64 }
