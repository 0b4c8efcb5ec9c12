package memcache

import (
	"errors"
	"sync"

	"sdrad/internal/mem"
)

// ErrArenaFull is returned when the cache memory limit is reached; the
// storage engine responds by evicting (Memcached's -m behaviour).
var ErrArenaFull = errors.New("memcache: cache memory limit reached")

// bumpArena sub-allocates slab pages out of one pre-sized block, the
// equivalent of Memcached allocating 1 MiB slab pages until its memory
// limit. It never frees — slab pages are recycled by the chunk free
// lists.
type bumpArena struct {
	mu   sync.Mutex
	base mem.Addr
	size uint64
	off  uint64
}

func newBumpArena(base mem.Addr, size uint64) *bumpArena {
	return &bumpArena{base: base, size: size}
}

func (a *bumpArena) alloc(size uint64) (mem.Addr, error) {
	size = (size + 7) &^ 7
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.off+size > a.size {
		return 0, ErrArenaFull
	}
	p := a.base + mem.Addr(a.off)
	a.off += size
	return p, nil
}

// connAlloc is the allocator used for connection buffers and other
// per-connection state; it is where the vanilla/TLSF variants differ.
type connAlloc interface {
	Alloc(c *mem.CPU, size uint64) (mem.Addr, error)
	Free(c *mem.CPU, ptr mem.Addr) error
}

// lockedAlloc serializes a baseline heap (galloc or TLSF) shared by all
// workers: glibc's malloc is thread-safe, ours needs the same property.
type lockedAlloc struct {
	mu sync.Mutex
	a  connAlloc
}

func (l *lockedAlloc) Alloc(c *mem.CPU, size uint64) (mem.Addr, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.a.Alloc(c, size)
}

func (l *lockedAlloc) Free(c *mem.CPU, ptr mem.Addr) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.a.Free(c, ptr)
}
