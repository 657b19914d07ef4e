package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// --- frameQueue ------------------------------------------------------------

func TestFrameQueueFIFO(t *testing.T) {
	var q frameQueue
	if !q.empty() || q.len() != 0 {
		t.Fatal("zero queue must be empty")
	}
	for i := 0; i < 5; i++ {
		q.push(&Frame{Pattern: PatternID(i)})
	}
	if q.len() != 5 {
		t.Fatalf("len = %d, want 5", q.len())
	}
	for i := 0; i < 5; i++ {
		f := q.pop()
		if f == nil || f.Pattern != PatternID(i) {
			t.Fatalf("pop %d returned %v", i, f)
		}
	}
	if q.pop() != nil {
		t.Fatal("pop of empty queue must be nil")
	}
}

func TestFrameQueuePopMatchingPositions(t *testing.T) {
	// Removing from head, middle, and tail must all preserve the remaining
	// order and fix up the tail pointer.
	build := func() *frameQueue {
		q := &frameQueue{}
		for i := 0; i < 4; i++ {
			q.push(&Frame{Pattern: PatternID(i)})
		}
		return q
	}
	for target := PatternID(0); target < 4; target++ {
		q := build()
		f := q.popMatching(func(p PatternID) bool { return p == target })
		if f == nil || f.Pattern != target {
			t.Fatalf("popMatching(%d) = %v", target, f)
		}
		if q.len() != 3 {
			t.Fatalf("len after removal = %d", q.len())
		}
		var rest []PatternID
		for f := q.pop(); f != nil; f = q.pop() {
			rest = append(rest, f.Pattern)
		}
		want := make([]PatternID, 0, 3)
		for i := PatternID(0); i < 4; i++ {
			if i != target {
				want = append(want, i)
			}
		}
		for i := range want {
			if rest[i] != want[i] {
				t.Fatalf("after removing %d: rest = %v, want %v", target, rest, want)
			}
		}
		// Tail must be intact: pushing still appends at the end.
		q2 := build()
		q2.popMatching(func(p PatternID) bool { return p == 3 }) // remove tail
		q2.push(&Frame{Pattern: 99})
		last := PatternID(-1)
		for f := q2.pop(); f != nil; f = q2.pop() {
			last = f.Pattern
		}
		if last != 99 {
			t.Fatal("tail pointer corrupted by popMatching")
		}
	}
}

func TestFrameQueuePopMatchingMiss(t *testing.T) {
	var q frameQueue
	q.push(&Frame{Pattern: 1})
	if q.popMatching(func(p PatternID) bool { return p == 2 }) != nil {
		t.Fatal("popMatching must return nil when nothing matches")
	}
	if q.len() != 1 {
		t.Fatal("miss must not modify the queue")
	}
}

// Property: any interleaving of pushes, pops and matched removals keeps the
// queue consistent with a reference slice model.
func TestFrameQueueModelProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q frameQueue
		var model []PatternID
		next := PatternID(0)
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				q.push(&Frame{Pattern: next})
				model = append(model, next)
				next++
			case 1: // pop
				got := q.pop()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got == nil || got.Pattern != model[0] {
						return false
					}
					model = model[1:]
				}
			case 2: // popMatching on even patterns
				match := func(p PatternID) bool { return p%2 == 0 }
				got := q.popMatching(match)
				idx := -1
				for i, p := range model {
					if match(p) {
						idx = i
						break
					}
				}
				if idx == -1 {
					if got != nil {
						return false
					}
				} else {
					if got == nil || got.Pattern != model[idx] {
						return false
					}
					model = append(model[:idx:idx], model[idx+1:]...)
				}
			}
			if q.len() != len(model) {
				return false
			}
		}
		// Drain and compare.
		for _, want := range model {
			got := q.pop()
			if got == nil || got.Pattern != want {
				return false
			}
		}
		return q.pop() == nil && q.empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- schedQueue --------------------------------------------------------------

func TestSchedQueueFIFO(t *testing.T) {
	var q schedQueue
	objs := make([]*Object, 10)
	for i := range objs {
		objs[i] = &Object{}
		q.push(objs[i])
	}
	if q.len() != 10 {
		t.Fatalf("len = %d", q.len())
	}
	for i := range objs {
		if q.pop() != objs[i] {
			t.Fatalf("FIFO violated at %d", i)
		}
	}
	if q.pop() != nil || !q.empty() {
		t.Fatal("drained queue must be empty")
	}
}

func TestSchedQueueCompaction(t *testing.T) {
	// Interleaved pushes and pops beyond the compaction threshold must not
	// lose or reorder items.
	var q schedQueue
	rng := rand.New(rand.NewSource(3))
	var model []*Object
	for i := 0; i < 10000; i++ {
		if rng.Intn(3) > 0 || len(model) == 0 {
			o := &Object{}
			q.push(o)
			model = append(model, o)
		} else {
			got := q.pop()
			if got != model[0] {
				t.Fatalf("iteration %d: pop mismatch", i)
			}
			model = model[1:]
		}
	}
	for _, want := range model {
		if q.pop() != want {
			t.Fatal("drain mismatch after compactions")
		}
	}
}

// --- Value -------------------------------------------------------------------

func TestValueRoundTrips(t *testing.T) {
	if v := IntV(-42); v.Kind() != KindInt || v.Int() != -42 {
		t.Error("int round trip")
	}
	if v := BoolV(true); !v.Bool() {
		t.Error("bool round trip")
	}
	if v := BoolV(false); v.Bool() {
		t.Error("bool false round trip")
	}
	if v := FloatV(2.5); v.Float() != 2.5 {
		t.Error("float round trip")
	}
	if v := StrV("abc"); v.Str() != "abc" {
		t.Error("string round trip")
	}
	obj := &Object{node: 3}
	if v := RefV(obj.Addr()); v.Ref().Obj != obj || v.Ref().Node != 3 {
		t.Error("ref round trip")
	}
	if v := AnyV([]int{1, 2}); v.Any().([]int)[1] != 2 {
		t.Error("any round trip")
	}
	if !Nil.IsNil() || IntV(0).IsNil() {
		t.Error("IsNil")
	}
}

func TestValueKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading int as string")
		}
	}()
	_ = IntV(1).Str()
}

func TestValueIntRoundTripProperty(t *testing.T) {
	f := func(x int64) bool { return IntV(x).Int() == x }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Nil, "nil"},
		{IntV(7), "7"},
		{BoolV(true), "true"},
		{StrV("x"), `"x"`},
		{FloatV(1.5), "1.5"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

func TestValueSizes(t *testing.T) {
	if IntV(1).SizeBytes() != 8 || RefV(Address{}).SizeBytes() != 8 {
		t.Error("scalar sizes must be one word")
	}
	if StrV("abcd").SizeBytes() != 12 {
		t.Error("string size = header + bytes")
	}
	if AnyV(struct{}{}).SizeBytes() != 32 {
		t.Error("opaque payloads default to 32 bytes")
	}
	if got := ArgsSize([]Value{IntV(1), StrV("ab")}); got != 18 {
		t.Errorf("ArgsSize = %d, want 18", got)
	}
	if ArgsSize(nil) != 0 {
		t.Error("empty args have zero size")
	}
}

type sizedPayload struct{ n int }

func (s sizedPayload) SizeBytes() int { return s.n }

func TestValueSizerInterface(t *testing.T) {
	if AnyV(sizedPayload{n: 100}).SizeBytes() != 100 {
		t.Error("Sizer payloads must report their own size")
	}
}

// Value rides inline in every argument buffer, frame and wire record on the
// message fast path: four words, one of them the interface's type word.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

type pair struct{ A, B int }

// TestValueEveryKindRoundTrip checks that every kind returns exactly what
// it was made from — float bits included — and that String and SizeBytes
// keep their established output.
func TestValueEveryKindRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanBits := uint64(0x7ff8000000000001) // a quiet NaN with a payload bit
	obj := (&Object{node: 5}).Addr()

	cases := []struct {
		name  string
		v     Value
		kind  Kind
		str   string
		size  int
		check func(t *testing.T, v Value)
	}{
		{"nil", Nil, KindNil, "nil", 8, func(t *testing.T, v Value) {
			if !v.IsNil() {
				t.Error("Nil is not nil")
			}
		}},
		{"int", IntV(-42), KindInt, "-42", 8, func(t *testing.T, v Value) {
			if v.Int() != -42 {
				t.Errorf("Int() = %d", v.Int())
			}
		}},
		{"int-max", IntV(math.MaxInt64), KindInt, "9223372036854775807", 8, func(t *testing.T, v Value) {
			if v.Int() != math.MaxInt64 {
				t.Errorf("Int() = %d", v.Int())
			}
		}},
		{"true", BoolV(true), KindBool, "true", 8, func(t *testing.T, v Value) {
			if !v.Bool() {
				t.Error("Bool() = false")
			}
		}},
		{"false", BoolV(false), KindBool, "false", 8, func(t *testing.T, v Value) {
			if v.Bool() {
				t.Error("Bool() = true")
			}
		}},
		{"float", FloatV(2.5), KindFloat, "2.5", 8, func(t *testing.T, v Value) {
			if v.Float() != 2.5 {
				t.Errorf("Float() = %g", v.Float())
			}
		}},
		{"float-neg-zero", FloatV(negZero), KindFloat, "-0", 8, func(t *testing.T, v Value) {
			if b := math.Float64bits(v.Float()); b != math.Float64bits(negZero) {
				t.Errorf("Float() bits = %#x, want %#x", b, math.Float64bits(negZero))
			}
		}},
		{"float-nan", FloatV(math.Float64frombits(nanBits)), KindFloat, "NaN", 8, func(t *testing.T, v Value) {
			if b := math.Float64bits(v.Float()); b != nanBits {
				t.Errorf("Float() bits = %#x, want %#x", b, nanBits)
			}
		}},
		{"string-empty", StrV(""), KindString, `""`, 8, func(t *testing.T, v Value) {
			if v.Str() != "" {
				t.Errorf("Str() = %q", v.Str())
			}
		}},
		{"string", StrV("héllo"), KindString, `"héllo"`, 14, func(t *testing.T, v Value) {
			if v.Str() != "héllo" {
				t.Errorf("Str() = %q", v.Str())
			}
		}},
		{"ref-nil-address", RefV(NilAddress), KindRef, "addr(nil)", 8, func(t *testing.T, v Value) {
			if v.Ref() != NilAddress || !v.Ref().IsNil() {
				t.Errorf("Ref() = %+v, want NilAddress", v.Ref())
			}
		}},
		{"ref-nil-obj", RefV(Address{Node: 3}), KindRef, "addr(nil)", 8, func(t *testing.T, v Value) {
			if a := v.Ref(); a.Node != 3 || a.Obj != nil {
				t.Errorf("Ref() = %+v, want node 3 with a nil Obj", a)
			}
		}},
		{"ref", RefV(obj), KindRef, obj.String(), 8, func(t *testing.T, v Value) {
			if v.Ref() != obj {
				t.Errorf("Ref() = %+v, want %+v", v.Ref(), obj)
			}
		}},
		{"any-nil", AnyV(nil), KindAny, "any(<nil>)", 32, func(t *testing.T, v Value) {
			if v.Any() != nil {
				t.Errorf("Any() = %v, want nil", v.Any())
			}
			if v.IsNil() {
				t.Error("AnyV(nil) reports IsNil")
			}
		}},
		{"any", AnyV(pair{1, 2}), KindAny, "any({1 2})", 32, func(t *testing.T, v Value) {
			if v.Any() != (pair{1, 2}) {
				t.Errorf("Any() = %v", v.Any())
			}
		}},
		{"any-sizer", AnyV(sizedPayload{n: 100}), KindAny, "any({100})", 100, func(t *testing.T, v Value) {
			if v.Any() != (sizedPayload{n: 100}) {
				t.Errorf("Any() = %v", v.Any())
			}
		}},
	}
	seen := map[Kind]bool{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seen[c.v.Kind()] = true
			if c.v.Kind() != c.kind {
				t.Fatalf("Kind() = %v, want %v", c.v.Kind(), c.kind)
			}
			if got := c.v.String(); got != c.str {
				t.Errorf("String() = %q, want %q", got, c.str)
			}
			if got := c.v.SizeBytes(); got != c.size {
				t.Errorf("SizeBytes() = %d, want %d", got, c.size)
			}
			c.check(t, c.v)
		})
	}
	for k := KindNil; k <= KindAny; k++ {
		if !seen[k] {
			t.Errorf("kind %v has no round-trip case", k)
		}
	}
}

// --- Registry ------------------------------------------------------------------

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	a := r.Register("a", 2)
	b := r.Register("b", 0)
	if a == b {
		t.Fatal("distinct patterns must get distinct ids")
	}
	if got := r.Register("a", 2); got != a {
		t.Fatal("re-registration must return the same id")
	}
	if r.Count() != 2 {
		t.Fatalf("count = %d", r.Count())
	}
	if r.Name(a) != "a" || r.Arity(a) != 2 {
		t.Fatal("name/arity lookup")
	}
	if id, ok := r.Lookup("b"); !ok || id != b {
		t.Fatal("lookup by name")
	}
	if _, ok := r.Lookup("zzz"); ok {
		t.Fatal("lookup of unknown name")
	}
	if r.Name(PatternID(99)) == "" {
		t.Fatal("out-of-range name must still render")
	}
}

func TestRegistryArityConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Register("a", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected arity-conflict panic")
		}
	}()
	r.Register("a", 3)
}

func TestRegistryNegativeArityPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected negative-arity panic")
		}
	}()
	r.Register("a", -1)
}

func TestRegistryDenseIDs(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 50; i++ {
		id := r.Register(string(rune('a'+i)), 0)
		if int(id) != i {
			t.Fatalf("ids must be dense: got %d at step %d", id, i)
		}
	}
}

// --- Frame ---------------------------------------------------------------------

func TestFrameArgBounds(t *testing.T) {
	f := &Frame{Args: []Value{IntV(1)}}
	if f.Arg(0).Int() != 1 {
		t.Error("in-range arg")
	}
	if !f.Arg(1).IsNil() || !f.Arg(-1).IsNil() {
		t.Error("out-of-range args must be Nil")
	}
}
