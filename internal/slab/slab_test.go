package slab

import "testing"

func TestSlabCarvesDistinctZeroedRecords(t *testing.T) {
	var s Slab[[4]int]
	seen := map[*[4]int]bool{}
	for i := 0; i < 1000; i++ {
		p := s.New()
		if *p != ([4]int{}) {
			t.Fatalf("record %d not zeroed: %v", i, *p)
		}
		if seen[p] {
			t.Fatalf("record %d handed out twice", i)
		}
		seen[p] = true
		p[0] = i + 1 // dirty it: a later record must not see this
	}
}

// TestSlabBlockGrowth checks the allocation schedule: blocks double from
// minBlock to maxBlock records, then stay at maxBlock.
func TestSlabBlockGrowth(t *testing.T) {
	var s Slab[int]
	records, blocks := 0, 0
	for size := minBlock; size < maxBlock; size *= 2 {
		records += size
		blocks++
	}
	records += 3 * maxBlock
	blocks += 3
	allocs := testing.AllocsPerRun(1, func() {
		s = Slab[int]{}
		for i := 0; i < records; i++ {
			s.New()
		}
	})
	if int(allocs) != blocks {
		t.Errorf("%d records took %.0f allocations, want %d blocks", records, allocs, blocks)
	}
}
