//go:build !race

package memcache

import "testing"

// TestHardenedDoAllocs pins the heap allocations of one hardened Conn.Do
// (client and worker side together) in steady state. The race detector
// adds allocations of its own, hence the build tag.
func TestHardenedDoAllocs(t *testing.T) {
	const maxAllocs = 7
	s := startServer(t, VariantSDRaD, 1)
	c := s.NewConn()
	mustDo(t, c, FormatSet("k", []byte("v"), 0))
	req := FormatGet("k")
	for i := 0; i < 10; i++ {
		mustDo(t, c, req)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, _, err := c.Do(req); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxAllocs {
		t.Fatalf("allocations per hardened Conn.Do = %v, want <= %d", got, maxAllocs)
	}
}
