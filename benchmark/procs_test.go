package main

import (
	"os"
	"testing"
)

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (sim serve) (x)) S 1 4242 4242 0 -1 4194560 1234 0 5 0 700 300 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615"
	ticks, err := parseProcStatCPU(stat)
	if err != nil || ticks != 1000 {
		t.Errorf("parseProcStatCPU = %d, %v; want utime 700 + stime 300", ticks, err)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a b"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q) did not fail", bad)
		}
	}
	self, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc here")
	}
	if _, err := parseProcStatCPU(string(self)); err != nil {
		t.Errorf("own /proc/self/stat: %v", err)
	}
}

func TestParseProcStatusKB(t *testing.T) {
	status := "Name:\tsimserve\nVmPeak:\t 1240000 kB\nVmHWM:\t   51672 kB\nVmRSS:\t   45412 kB\n"
	kb, err := parseProcStatusKB(status, "VmHWM")
	if err != nil || kb != 51672 {
		t.Errorf("VmHWM = %d, %v", kb, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key did not fail")
	}
	if _, err := parseProcStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("unexpected unit did not fail")
	}
	self, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skip("no /proc here")
	}
	if kb, err := parseProcStatusKB(string(self), "VmHWM"); err != nil || kb <= 0 {
		t.Errorf("own VmHWM = %d, %v", kb, err)
	}
}
