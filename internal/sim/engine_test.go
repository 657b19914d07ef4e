package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	n, err := e.Run()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if n != 0 {
		t.Fatalf("fired %d events on empty engine", n)
	}
	if e.Now() != 0 {
		t.Fatalf("time advanced on empty engine: %v", e.Now())
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { got = append(got, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestEngineNowDuringEvent(t *testing.T) {
	e := NewEngine()
	var seen Time
	e.Schedule(42, func() { seen = e.Now() })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 42 {
		t.Fatalf("Now() inside event = %v, want 42", seen)
	}
}

func TestEngineSchedulingInPastClamps(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(100, func() {
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", fired)
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	n, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("fired %d events, want 3 after Stop", n)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i*10), func() { count++ })
	}
	if _, err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("fired %d events by t=50, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

func TestEngineEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(5)
	var reschedule func()
	reschedule = func() { e.After(1, reschedule) }
	e.Schedule(0, reschedule)
	if _, err := e.Run(); err == nil {
		t.Fatal("expected event-limit error on runaway schedule loop")
	}
}

func TestEngineDrain(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(1, func() { fired = true })
	e.Drain()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("drained event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
}

func TestEngineCascade(t *testing.T) {
	// Events scheduling further events must preserve global time order.
	e := NewEngine()
	var order []Time
	record := func() { order = append(order, e.Now()) }
	e.Schedule(10, func() {
		record()
		e.Schedule(15, record)
		e.Schedule(25, record)
	})
	e.Schedule(20, record)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 15, 20, 25}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var got []int
		var spawn func(depth, id int)
		spawn = func(depth, id int) {
			got = append(got, id)
			if depth < 4 {
				k := rng.Intn(3) + 1
				for i := 0; i < k; i++ {
					child := id*10 + i
					e.After(Time(rng.Intn(100)), func() { spawn(depth+1, child) })
				}
			}
		}
		e.Schedule(0, func() { spawn(0, 1) })
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a := run(7)
	b := run(7)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: regardless of insertion order, events fire sorted by time.
func TestEngineSortedFiringProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, at := range times {
			at := Time(at)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		if _, err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2300, "2.300µs"},
		{8900, "8.900µs"},
		{84 * Millisecond, "84.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds conversion wrong")
	}
	if (3 * Millisecond).Millis() != 3.0 {
		t.Error("Millis conversion wrong")
	}
	if (9 * Microsecond).Micros() != 9.0 {
		t.Error("Micros conversion wrong")
	}
}

// TestEventLayout guards the lane heaps' element size and the promise that
// carrying a closure in the event payload costs no allocation: a func value
// is pointer-shaped, so storing it in the interface does not box it.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 40 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want <= 40", got)
	}
	e := NewEngine()
	e.SetLanes(2)
	n := 0
	fire := func() { n++ }
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleFuncOn(0, 1, e.Now()+1, fire)
		e.Schedule(e.Now()+2, fire)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("closure events allocate %.1f objects per run, want 0", allocs)
	}
	if n != 2*101 {
		t.Errorf("fired %d closures, want %d", n, 2*101)
	}
}
