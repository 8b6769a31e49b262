package dapper

import (
	"testing"

	"dui/internal/packet"
)

func TestHonestDiagnoses(t *testing.T) {
	for _, tc := range []struct {
		sc   Scenario
		want Diagnosis
	}{
		{TrueNetwork, NetworkLimited},
		{TrueReceiver, ReceiverLimited},
		{TrueSender, SenderLimited},
	} {
		out := Run(tc.sc, None, 20)
		if out.Diagnosis != tc.want {
			t.Fatalf("scenario %v diagnosed %v, want %v", tc.sc, out.Diagnosis, tc.want)
		}
		if out.Throughput == 0 {
			t.Fatalf("scenario %v moved no data", tc.sc)
		}
	}
}

// TestInjectRetransmissionsBlamesNetwork: duplicated segments make a
// perfectly healthy sender-limited flow look congested.
func TestInjectRetransmissionsBlamesNetwork(t *testing.T) {
	honest := Run(TrueSender, None, 20)
	attacked := Run(TrueSender, InjectRetransmissions, 20)
	if honest.Diagnosis != SenderLimited {
		t.Fatalf("baseline wrong: %v", honest.Diagnosis)
	}
	if attacked.Diagnosis != NetworkLimited {
		t.Fatalf("attack diagnosed %v, want network-limited", attacked.Diagnosis)
	}
	// The duplicates do not harm the flow itself (receiver discards
	// them): goodput stays in the same ballpark.
	if attacked.Throughput < honest.Throughput*8/10 {
		t.Fatalf("attack collateral too large: %d vs %d", attacked.Throughput, honest.Throughput)
	}
	if attacked.Budget == 0 {
		t.Fatal("no packets injected")
	}
}

// TestShrinkWindowBlamesReceiver: forged small windows pin the observed
// flight at the fake limit.
func TestShrinkWindowBlamesReceiver(t *testing.T) {
	attacked := Run(TrueSender, ShrinkWindow, 20)
	if attacked.Diagnosis != ReceiverLimited {
		t.Fatalf("attack diagnosed %v, want receiver-limited", attacked.Diagnosis)
	}
}

// TestInflateWindowBlamesSender: a genuinely receiver-limited flow looks
// like the application is slacking.
func TestInflateWindowBlamesSender(t *testing.T) {
	honest := Run(TrueReceiver, None, 20)
	attacked := Run(TrueReceiver, InflateWindow, 20)
	if honest.Diagnosis != ReceiverLimited {
		t.Fatalf("baseline wrong: %v", honest.Diagnosis)
	}
	if attacked.Diagnosis != SenderLimited {
		t.Fatalf("attack diagnosed %v, want sender-limited", attacked.Diagnosis)
	}
}

// TestConfusionMatrixDiagonal: the honest runs form a correct diagonal.
func TestConfusionMatrixDiagonal(t *testing.T) {
	want := map[Scenario]Diagnosis{
		TrueNetwork:  NetworkLimited,
		TrueReceiver: ReceiverLimited,
		TrueSender:   SenderLimited,
	}
	for _, out := range ConfusionMatrix() {
		if out.Attack == None && out.Diagnosis != want[out.Scenario] {
			t.Fatalf("honest %v diagnosed %v", out.Scenario, out.Diagnosis)
		}
	}
}

func TestMonitorIgnoresNonTCP(t *testing.T) {
	m := NewMonitor()
	m.OnPacket(0, packet.NewUDP(1, 2, packet.UDPHeader{}, 100), nil)
	if len(m.conns) != 0 {
		t.Fatal("UDP tracked")
	}
}

func TestMonitorUnknownOnSparseTraffic(t *testing.T) {
	m := NewMonitor()
	k := packet.FlowKey{Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	// 2 packets in the first epoch, then one in the next to roll it.
	p := packet.NewTCP(1, 2, packet.TCPHeader{SrcPort: 1, DstPort: 2, Seq: 0}, 1500)
	m.OnPacket(0.1, p, nil)
	q := packet.NewTCP(1, 2, packet.TCPHeader{SrcPort: 1, DstPort: 2, Seq: 1460}, 1500)
	m.OnPacket(0.2, q, nil)
	r := packet.NewTCP(1, 2, packet.TCPHeader{SrcPort: 1, DstPort: 2, Seq: 2920}, 1500)
	m.OnPacket(1.5, r, nil)
	vs := m.Verdicts(k)
	if len(vs) != 1 || vs[0].Diagnosis != Unknown {
		t.Fatalf("verdicts = %+v", vs)
	}
}

func TestDiagnosisStrings(t *testing.T) {
	if SenderLimited.String() != "sender-limited" ||
		NetworkLimited.String() != "network-limited" ||
		ReceiverLimited.String() != "receiver-limited" ||
		Unknown.String() != "unknown" {
		t.Fatal("names")
	}
	if TrueNetwork.String() != "network" || None.String() != "none" {
		t.Fatal("scenario/attack names")
	}
}
