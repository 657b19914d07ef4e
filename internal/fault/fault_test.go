package fault

import (
	"testing"

	"repro/internal/sim"
)

// copiesOf calls in.Link and returns the extra latency of each delivered
// copy, so assertions read the schedule as one slice.
func copiesOf(in *Injector, src, dst int, size int) []sim.Time {
	n, extra := in.Link(src, dst, 0, size)
	return extra[:n]
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero plan", Plan{}, true},
		{"uniform", UniformLinks(0.1, 0.05, 2000), true},
		{"drop out of range", Plan{Links: []LinkFault{{Src: Wildcard, Dst: Wildcard, Drop: 1.5}}}, false},
		{"drop one", Plan{Links: []LinkFault{{Src: Wildcard, Dst: Wildcard, Drop: 1}}}, false},
		{"negative jitter", Plan{Links: []LinkFault{{Src: Wildcard, Dst: Wildcard, Jitter: -1}}}, false},
		{"bad node", Plan{Links: []LinkFault{{Src: 9, Dst: Wildcard}}}, false},
		{"pause bad node", Plan{}.WithPause(9, 0, 100), false},
		{"pause zero width", Plan{Pauses: []NodePause{{Node: 0, At: 0, For: 0}}}, false},
		{"pause ok", Plan{}.WithPause(1, 1000, 500), true},
	}
	for _, c := range cases {
		err := c.plan.Validate(4)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestLinkDeterminism(t *testing.T) {
	// The same (plan, seed) must yield an identical decision stream, and the
	// stream of one link must not depend on traffic on other links.
	plan := UniformLinks(0.2, 0.1, 5000)
	a, err := NewInjector(plan, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(plan, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	// a: interleave traffic on two links; b: query them separately.
	var aSeq, bSeq [][]sim.Time
	for i := 0; i < 200; i++ {
		aSeq = append(aSeq, copiesOf(a, 0, 1, 32))
		copiesOf(a, 2, 3, 32) // unrelated traffic
	}
	for i := 0; i < 200; i++ {
		bSeq = append(bSeq, copiesOf(b, 0, 1, 32))
	}
	for i := range aSeq {
		if len(aSeq[i]) != len(bSeq[i]) {
			t.Fatalf("decision %d differs: %v vs %v", i, aSeq[i], bSeq[i])
		}
		for j := range aSeq[i] {
			if aSeq[i][j] != bSeq[i][j] {
				t.Fatalf("decision %d jitter differs: %v vs %v", i, aSeq[i], bSeq[i])
			}
		}
	}
}

func TestLinkRates(t *testing.T) {
	in, err := NewInjector(UniformLinks(0.25, 0.25, 0), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var drops, dups int
	for i := 0; i < n; i++ {
		out := copiesOf(in, 0, 1, 16)
		switch len(out) {
		case 0:
			drops++
		case 2:
			dups++
		}
	}
	if f := float64(drops) / n; f < 0.22 || f > 0.28 {
		t.Errorf("drop rate %f, want ~0.25", f)
	}
	// Duplication only applies to non-dropped attempts: ~0.25 * 0.75.
	if f := float64(dups) / n; f < 0.16 || f > 0.22 {
		t.Errorf("dup rate %f, want ~0.19", f)
	}
	if in.Drops() != uint64(drops) || in.Dups() != uint64(dups) {
		t.Errorf("injector totals drift: %d/%d vs %d/%d", in.Drops(), in.Dups(), drops, dups)
	}
}

func TestLocalTrafficExempt(t *testing.T) {
	in, err := NewInjector(UniformLinks(0.99, 0.99, 1000), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		out := copiesOf(in, 1, 1, 16)
		if len(out) != 1 || out[0] != 0 {
			t.Fatalf("local delivery must be exempt, got %v", out)
		}
	}
}

func TestFirstMatchWins(t *testing.T) {
	plan := Plan{Links: []LinkFault{
		{Src: 0, Dst: 1, Drop: 0},                              // specific link: clean
		{Src: Wildcard, Dst: Wildcard, Drop: 0.999999, Dup: 0}, // everything else drops
	}}
	in, err := NewInjector(plan, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if len(copiesOf(in, 0, 1, 16)) != 1 {
			t.Fatal("specific clean rule must shadow the wildcard")
		}
	}
	var delivered int
	for i := 0; i < 50; i++ {
		delivered += len(copiesOf(in, 1, 0, 16))
	}
	if delivered > 2 {
		t.Fatalf("wildcard drop rule barely applied: %d/50 delivered", delivered)
	}
}

func TestPausedUntil(t *testing.T) {
	plan := Plan{}.WithPause(1, 1000, 500).WithPause(1, 3000, 100)
	in, err := NewInjector(plan, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		node int
		at   sim.Time
		want sim.Time
	}{
		{0, 1200, 1200}, // other node unaffected
		{1, 500, 500},   // before the window
		{1, 1000, 1500}, // window start
		{1, 1499, 1500}, // inside
		{1, 1500, 1500}, // window end: running
		{1, 3050, 3100}, // second window
		{1, 9999, 9999}, // after everything
	}
	for _, c := range cases {
		if got := in.PausedUntil(c.node, c.at); got != c.want {
			t.Errorf("PausedUntil(%d, %v) = %v, want %v", c.node, c.at, got, c.want)
		}
	}
}

func TestPlanSeedOverride(t *testing.T) {
	plan := UniformLinks(0.5, 0, 0)
	plan.Seed = 99
	in, err := NewInjector(plan, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if in.Seed() != 99 {
		t.Fatalf("plan seed must override system seed, got %d", in.Seed())
	}
	in2, err := NewInjector(UniformLinks(0.5, 0, 0), 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if in2.Seed() != 7 {
		t.Fatalf("zero plan seed must derive from system seed, got %d", in2.Seed())
	}
}
