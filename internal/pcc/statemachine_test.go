package pcc

import (
	"testing"

	"dui/internal/netsim"
	"dui/internal/packet"
	"dui/internal/stats"
	"dui/internal/tcpflow"
)

// newIdleSender builds a sender on a throw-away network purely to unit-test
// the control state machine via onResult, without running traffic.
func newIdleSender(t *testing.T) *Sender {
	t.Helper()
	nw := netsim.New()
	src := nw.AddHost("s", 1)
	dst := nw.AddHost("d", 2)
	nw.Connect(src, dst, 0, 0.001, 0)
	nw.ComputeRoutes()
	se, de := tcpflow.NewEndpoint(src), tcpflow.NewEndpoint(dst)
	s := Start(se, de, Config{
		Key:      packet.FlowKey{Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP},
		Duration: 0.001, // effectively no traffic
	}, stats.NewRNG(1))
	nw.RunUntil(0.01)
	s.Stop()
	s.stopped = false // re-enable the state machine for direct driving
	return s
}

func trial(rate float64, role string, util float64) *MIRecord {
	return &MIRecord{Rate: rate, Role: role, Utility: util}
}

// TestDecideUpWins: both pairs favor (1+eps) -> adjusting upward.
func TestDecideUpWins(t *testing.T) {
	s := newIdleSender(t)
	s.state = Deciding
	s.rate = 100
	s.eps = 0.01
	for _, r := range []*MIRecord{
		trial(101, "up", 10), trial(99, "down", 9),
		trial(101, "up", 10.5), trial(99, "down", 9.5),
	} {
		s.trialResults = append(s.trialResults, r)
	}
	s.decide()
	if s.state != Adjusting || s.adjustDir != 1 {
		t.Fatalf("state=%v dir=%v", s.state, s.adjustDir)
	}
	if s.rate <= 100 {
		t.Fatalf("rate did not move up: %v", s.rate)
	}
}

// TestDecideDownWins: both pairs favor (1-eps) -> adjusting downward.
func TestDecideDownWins(t *testing.T) {
	s := newIdleSender(t)
	s.state = Deciding
	s.rate = 100
	s.eps = 0.01
	for _, r := range []*MIRecord{
		trial(101, "up", 8), trial(99, "down", 9),
		trial(101, "up", 8.5), trial(99, "down", 9.5),
	} {
		s.trialResults = append(s.trialResults, r)
	}
	s.decide()
	if s.state != Adjusting || s.adjustDir != -1 {
		t.Fatalf("state=%v dir=%v", s.state, s.adjustDir)
	}
	if s.rate >= 100 {
		t.Fatalf("rate did not move down: %v", s.rate)
	}
}

// TestDecideInconclusiveEscalates: mixed pairs -> stay, eps += eps_min,
// capped at eps_max — the exact state the §4.2 attacker forces.
func TestDecideInconclusiveEscalates(t *testing.T) {
	s := newIdleSender(t)
	s.rate = 100
	s.state = Deciding
	s.eps = 0.01
	for round := 0; round < 10; round++ {
		s.trialResults = s.trialResults[:0]
		for _, r := range []*MIRecord{
			trial(100*(1+s.eps), "up", 10), trial(100*(1-s.eps), "down", 9),
			trial(100*(1+s.eps), "up", 8), trial(100*(1-s.eps), "down", 9.5),
		} {
			s.trialResults = append(s.trialResults, r)
		}
		s.decide()
		if s.state != Deciding {
			t.Fatalf("left deciding on inconclusive round %d", round)
		}
		if s.rate != 100 {
			t.Fatalf("rate moved on inconclusive: %v", s.rate)
		}
	}
	if s.eps != 0.05 {
		t.Fatalf("eps = %v, want capped at 0.05", s.eps)
	}
}

// TestClampBounds: rate never leaves [minRate, MaxRate].
func TestClampBounds(t *testing.T) {
	s := newIdleSender(t)
	if got := s.clamp(1e9); got != s.cfg.MaxRate {
		t.Fatalf("clamp high = %v", got)
	}
	if got := s.clamp(0); got != minRate {
		t.Fatalf("clamp low = %v", got)
	}
}
