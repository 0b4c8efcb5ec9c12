//go:build !race

package httpd

import "testing"

// TestHardenedDoAllocs pins the heap allocations of one hardened Conn.Do
// (client and worker side together) in steady state. The race detector
// adds allocations of its own, hence the build tag.
func TestHardenedDoAllocs(t *testing.T) {
	const maxAllocs = 17
	m := startMaster(t, VariantSDRaD, 1)
	c := m.Worker(0).NewConn()
	req := FormatRequest("/index.html", true)
	for i := 0; i < 10; i++ {
		mustGet(t, c, "/index.html")
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
