package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// logf writes a progress line to standard error; standard output is kept
// for the metrics.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// The calibration kernel: a fixed amount of pointer-chasing and map-churn
// work, the same memory-bound mix the serving engine is made of. The work
// never changes, so a change in its reading is the machine, not the program
// under test.
const (
	calibNodes = 1 << 18 // 2 MiB of uint64: past L1, so memory latency counts
	calibSteps = 3_000_000
)

// calibSink keeps the kernel's result live.
var calibSink uint64

// calibrate runs the kernel `samples` times and returns the median time of
// one pass in milliseconds.
func calibrate(samples int) float64 {
	next := make([]uint64, calibNodes)
	for i := range next {
		next[i] = (uint64(i)*2654435761 + 12345) % calibNodes
	}
	times := make([]float64, samples)
	for s := range times {
		m := make(map[uint64]uint64, 1<<12)
		began := time.Now()
		var p uint64
		for i := 0; i < calibSteps; i++ {
			p = next[p]
			if i&7 == 0 {
				k := p & (1<<12 - 1)
				m[k] += p
				if i&255 == 0 {
					delete(m, k)
				}
			}
		}
		times[s] = float64(time.Since(began)) / float64(time.Millisecond)
		calibSink += p + uint64(len(m))
	}
	return median(times)
}

// fsyncProbe appends 4 KiB and fsyncs, 100 times, in dir, and returns the
// median microseconds with the filesystem's type name: what "durable"
// costs, and therefore means, on this box.
func fsyncProbe(dir string) (us float64, fstype string, err error) {
	path := filepath.Join(dir, "fsync.probe")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, "", err
	}
	defer os.Remove(path)
	defer f.Close()
	block := make([]byte, 4096)
	var samples []float64
	for i := 0; i < 100; i++ {
		began := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, "", err
		}
		if err := f.Sync(); err != nil {
			return 0, "", err
		}
		samples = append(samples, float64(time.Since(began))/float64(time.Microsecond))
	}
	return median(samples), fsType(dir), nil
}

// fsType names the filesystem holding path, from statfs's magic number.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
