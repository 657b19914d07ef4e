package machine

import (
	"testing"

	"repro/internal/sim"
)

// scriptFaults is a hand-scripted FaultModel: it returns the queued link
// outcomes in order and a fixed pause table.
type scriptFaults struct {
	outcomes [][]sim.Time
	paused   map[int][2]sim.Time // node -> [start, end)
}

func (s *scriptFaults) Link(src, dst int, at sim.Time, size int) (int, [2]sim.Time) {
	var extra [2]sim.Time
	if len(s.outcomes) == 0 {
		return 1, extra
	}
	out := s.outcomes[0]
	s.outcomes = s.outcomes[1:]
	return copy(extra[:], out), extra
}

func (s *scriptFaults) PausedUntil(node int, at sim.Time) sim.Time {
	if w, ok := s.paused[node]; ok && at >= w[0] && at < w[1] {
		return w[1]
	}
	return at
}

type sinkRec struct {
	drops, dups, pauses int
}

func (s *sinkRec) PacketDropped(src, dst int, at sim.Time, cat int)    { s.drops++ }
func (s *sinkRec) PacketDuplicated(src, dst int, at sim.Time, cat int) { s.dups++ }
func (s *sinkRec) NodePaused(node int, at, until sim.Time)             { s.pauses++ }

func TestSendDropAndDuplicate(t *testing.T) {
	m := MustNew(DefaultConfig(2))
	sf := &scriptFaults{outcomes: [][]sim.Time{
		nil,      // first send dropped
		{0, 700}, // second duplicated, copy delayed 700ns
		{0},      // third clean
	}}
	sink := &sinkRec{}
	m.SetFaults(sf)
	m.SetFaultSink(sink)

	var got []sim.Time
	h := func(n *Node, p *Packet) { got = append(got, p.Arrival) }
	src := m.Node(0)
	for i := 0; i < 3; i++ {
		src.Send(&Packet{Dst: 1, Size: 16, Handler: h})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Drop: 1 delivery lost; dup: 2 copies; clean: 1 → 3 deliveries total.
	if len(got) != 3 {
		t.Fatalf("deliveries = %d, want 3 (drop + dup + clean): %v", len(got), got)
	}
	if sink.drops != 1 || sink.dups != 1 {
		t.Errorf("sink saw drops=%d dups=%d, want 1/1", sink.drops, sink.dups)
	}
	if src.PacketsDropped != 1 || src.PacketsDuped != 1 {
		t.Errorf("node counters drops=%d dups=%d, want 1/1", src.PacketsDropped, src.PacketsDuped)
	}
	if m.TotalDropped() != 1 || m.TotalDuped() != 1 {
		t.Errorf("machine counters drops=%d dups=%d, want 1/1", m.TotalDropped(), m.TotalDuped())
	}
	// All three attempts count as sent exactly once.
	if src.PacketsSent != 3 {
		t.Errorf("PacketsSent = %d, want 3", src.PacketsSent)
	}
	if m.Node(1).PacketsRecvd != 3 {
		t.Errorf("PacketsRecvd = %d, want 3 (duplicate copies both count)", m.Node(1).PacketsRecvd)
	}
	// FIFO per copy: arrivals are strictly increasing.
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("arrival order violated: %v", got)
		}
	}
}

func TestNodePauseDefersExecution(t *testing.T) {
	m := MustNew(DefaultConfig(2))
	// Node 1 pauses from t=0 until t=100µs; a packet sent at t=0 arrives at
	// ~1.5µs but its handler must not run before the window ends.
	sf := &scriptFaults{paused: map[int][2]sim.Time{1: {0, 100 * sim.Microsecond}}}
	sink := &sinkRec{}
	m.SetFaults(sf)
	m.SetFaultSink(sink)

	var ranAt sim.Time = -1
	m.Node(0).Send(&Packet{Dst: 1, Size: 16, Handler: func(n *Node, p *Packet) {
		ranAt = m.Eng.Now()
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if ranAt < 100*sim.Microsecond {
		t.Errorf("handler ran at %v, inside the pause window", ranAt)
	}
	if sink.pauses == 0 {
		t.Error("sink never notified of the pause")
	}
	if got := m.Node(1).Clock; got < 100*sim.Microsecond {
		t.Errorf("paused node clock = %v, want >= window end", got)
	}
	// The pause must not count as busy time.
	if m.Node(1).Busy >= 100*sim.Microsecond {
		t.Errorf("pause accrued busy time: %v", m.Node(1).Busy)
	}
}

func TestNilFaultsUnchanged(t *testing.T) {
	// Without a fault model the send path must not change behaviour.
	m := MustNew(DefaultConfig(2))
	n := 0
	m.Node(0).Send(&Packet{Dst: 1, Size: 16, Handler: func(*Node, *Packet) { n++ }})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 || m.TotalDropped() != 0 || m.TotalDuped() != 0 {
		t.Fatalf("fault-free delivery broken: n=%d dropped=%d duped=%d", n, m.TotalDropped(), m.TotalDuped())
	}
}
