package tcpflow

import (
	"math/rand/v2"
	"testing"
)

// TestFlightMatchesMap drives the ordered in-flight window and a
// map[int64]sendInfo model — the representation it replaced — through
// the same random sender history: new sends at the head, retransmits at
// una, overwrites, sends at unaligned and already-cut seqs, and
// cumulative ACKs that are unaligned, duplicate, stale or beyond every
// send. After each step every lookup, the length and the ascending order
// must agree with the model.
func TestFlightMatchesMap(t *testing.T) {
	const mss = 1460
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xf1))
		var f flight
		model := map[int64]sendInfo{}
		var una, nxt int64
		for step := 0; step < 2000; step++ {
			now := float64(step)
			var seq int64
			switch op := rng.IntN(10); {
			case op < 4: // new data
				seq = nxt
				nxt += mss
			case op < 5: // retransmit at una
				seq = una
			case op < 6: // overwrite a random sent segment
				seq = una + int64(rng.IntN(16))*mss
			case op < 7: // any seq at all, cut or not
				seq = una + int64(rng.IntN(8*mss)) - 4*mss
			default: // cumulative ACK, possibly unaligned, stale or too far
				ack := una + int64(rng.IntN(12*mss)) - 2*mss
				if rng.IntN(2) == 0 {
					ack -= ack % mss
				}
				want, wantOK := model[una]
				if got, ok := f.get(una); ok != wantOK || got != want {
					t.Fatalf("seed %d step %d: get(una=%d) = %v,%v, want %v,%v", seed, step, una, got, ok, want, wantOK)
				}
				if ack > una {
					for s := range model {
						if s < ack {
							delete(model, s)
						}
					}
					f.cut(ack)
					una = ack
				}
				checkFlight(t, seed, step, &f, model, una)
				continue
			}
			retrans := seq < nxt-mss || rng.IntN(4) == 0
			model[seq] = sendInfo{at: now, retrans: retrans || model[seq].retrans}
			f.put(seq, now, retrans)
			checkFlight(t, seed, step, &f, model, una)
		}
	}
}

func checkFlight(t *testing.T, seed uint64, step int, f *flight, model map[int64]sendInfo, una int64) {
	t.Helper()
	if f.len() != len(model) {
		t.Fatalf("seed %d step %d: len %d, model %d", seed, step, f.len(), len(model))
	}
	live := f.segs[f.lo:]
	for i, sg := range live {
		if i > 0 && live[i-1].seq >= sg.seq {
			t.Fatalf("seed %d step %d: seqs out of order: %d then %d", seed, step, live[i-1].seq, sg.seq)
		}
		if want, ok := model[sg.seq]; !ok || want != sg.sendInfo {
			t.Fatalf("seed %d step %d: seq %d holds %v, model %v,%v", seed, step, sg.seq, sg.sendInfo, want, ok)
		}
	}
	for _, seq := range []int64{una, una - 1, una + 1, una + 1460, una - 1460} {
		want, wantOK := model[seq]
		if got, ok := f.get(seq); ok != wantOK || got != want {
			t.Fatalf("seed %d step %d: get(%d) = %v,%v, want %v,%v", seed, step, seq, got, ok, want, wantOK)
		}
	}
}
