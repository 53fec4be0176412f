package main

import (
	"os"
	"testing"
	"time"
)

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and parentheses; utime=150 stime=50
	// cutime=20 cstime=5 are fields 14 to 17.
	line := []byte("4242 (my (odd) name) S 1 4242 4242 0 -1 4194560 1000 2000 0 0 150 50 20 5 20 0 9 0 12345 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := parseProcStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2250 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v (225 ticks of 10 ms)", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 11 a b c d e"} {
		if _, err := parseProcStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseProcStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\teverest\nVmPeak:\t 1234567 kB\nVmHWM:\t   18452 kB\nVmRSS:\t   17000 kB\n")
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := 18452.0 / 1024; got != want {
		t.Errorf("VmHWM = %v MiB, want %v", got, want)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

func TestProcSelf(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("procCPU(self): %v", err)
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("procPeakRSS(self) = %v, %v", rss, err)
	}
}
