package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"
)

// clockTick is the kernel's USER_HZ.  Linux has reported process times in
// 1/100 s on every architecture Go supports, and there is no sysconf
// without cgo.
const clockTick = 100

// parseProcStatCPU extracts the CPU time of a process from the content of
// /proc/<pid>/stat: utime + stime, plus cutime + cstime so that children the
// process has waited for (the command adapter's cp) are charged to it.  The
// command name may contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStatCPU(data []byte) (time.Duration, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, fmt.Errorf("procstat: no command field in %q", data)
	}
	// fields[0] is field 3 (state); utime..cstime are fields 14..17.
	fields := bytes.Fields(data[end+1:])
	if len(fields) < 15 {
		return 0, fmt.Errorf("procstat: %d fields after the command, want 15 or more", len(fields))
	}
	var ticks uint64
	for _, f := range fields[11:15] {
		n, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procstat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// parseVmHWM extracts the peak resident set size, in MiB, from the content
// of /proc/<pid>/status.
func parseVmHWM(data []byte) (float64, error) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) != 2 || string(fields[1]) != "kB" {
			return 0, fmt.Errorf("procstat: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0, fmt.Errorf("procstat: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("procstat: no VmHWM line")
}

// procCPU reads the CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(data)
}

// procPeakRSS reads the peak resident set size of a process in MiB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}
