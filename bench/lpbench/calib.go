package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was built on is shared, and its speed moves by
// 20-50% from one second or minute to the next, for every workload alike:
// runs of identical work took 7.3 s in one minute and 9.6 s in another,
// and a fixed kernel takes anywhere from 7.5 to 15 ms. So a run probes
// the host with that kernel, which uses none of the repository's code:
// before set-up, when the timed phase starts and ends, and at round
// boundaries in between, each time with every client idle and after a
// garbage collection. Each stretch of the timed phase between two probes
// has its times scaled by calibRefMs / (the mean of its two probes), so
// the run reports reference-host units, in which most of the host's drift
// cancels. The kernel's memory is mapped outside the Go heap, so neither
// the program's heap nor its collector can move it.

// calibRefMs is the kernel's time on the reference host (two vCPUs of a
// Xeon server) when the host is not contended.
const calibRefMs = 7.5

// probeReps is how many times a probe runs the kernel; its reading is the
// median.
const probeReps = 3

// prober owns the kernel's buffers.
type prober struct {
	mem  []byte
	bufs [2]calibBuf
}

type calibBuf struct {
	table []uint64 // open-addressing hash set
	keys  []uint64
	left  []int32 // binary search tree over keys, by index
	right []int32
}

const calibKeys = 1 << 15

func newProber() (*prober, error) {
	per := (4*calibKeys+calibKeys)*8 + 2*calibKeys*4
	mem, err := syscall.Mmap(-1, 0, 2*per, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	p := &prober{mem: mem}
	rest := mem
	for i := range p.bufs {
		b := &p.bufs[i]
		b.table, rest = carve[uint64](rest, 4*calibKeys)
		b.keys, rest = carve[uint64](rest, calibKeys)
		b.left, rest = carve[int32](rest, calibKeys)
		b.right, rest = carve[int32](rest, calibKeys)
	}
	return p, nil
}

// carve takes a []T of n elements from the front of mem.
func carve[T any](mem []byte, n int) ([]T, []byte) {
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), mem[n*int(unsafe.Sizeof(zero)):]
}

func (p *prober) close() { syscall.Munmap(p.mem) }

// probe runs the kernel probeReps times on two goroutines at once and
// returns the median time of a run in ms. A collection first finishes any
// garbage collection the workload left running, which would otherwise
// slow the kernel by an amount that depends on the program's heap.
func (p *prober) probe() float64 {
	runtime.GC()
	ms := make([]float64, probeReps)
	for r := range ms {
		start := time.Now()
		var wg sync.WaitGroup
		for i := range p.bufs {
			wg.Add(1)
			go func(b *calibBuf, seed uint64) {
				defer wg.Done()
				b.kernel(seed)
			}(&p.bufs[i], uint64(r*len(p.bufs)+i+1))
		}
		wg.Wait()
		ms[r] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(ms)
}

// kernel hashes, inserts into a tree and sorts calibKeys pseudo-random
// keys: cache-resident probing, pointer chasing and branching.
func (b *calibBuf) kernel(seed uint64) uint64 {
	clear(b.table)
	x := seed
	for i := range b.keys {
		x |= 1 << 63
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b.keys[i] = x
		for h := x & uint64(len(b.table)-1); ; h = (h + 1) & uint64(len(b.table)-1) {
			if b.table[h] == 0 || b.table[h] == x {
				b.table[h] = x
				break
			}
		}
		b.left[i], b.right[i] = -1, -1
		for p := int32(0); i > 0; {
			next := &b.right[p]
			if x < b.keys[p] {
				next = &b.left[p]
			}
			if *next < 0 {
				*next = int32(i)
				break
			}
			p = *next
		}
	}
	slices.Sort(b.keys)
	return b.keys[0]
}
