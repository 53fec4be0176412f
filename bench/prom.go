package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSeries identifies one line of a Prometheus text exposition: the
// metric name and its label set exactly as rendered between the braces.
type promSeries struct {
	name   string
	labels string
}

// promSnapshot is one scrape of /metrics.
type promSnapshot map[promSeries]float64

// parseProm reads the Prometheus text format.  Comment lines are skipped; a
// line that is neither a comment nor "name[{labels}] value" is an error.
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := make(promSnapshot)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		var key promSeries
		rest := line
		if open := strings.IndexByte(line, '{'); open >= 0 {
			closing := strings.LastIndexByte(line, '}')
			if closing < open {
				return nil, fmt.Errorf("prom: unbalanced braces in %q", line)
			}
			key = promSeries{name: line[:open], labels: line[open+1 : closing]}
			rest = line[closing+1:]
		} else {
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("prom: no value in %q", line)
			}
			key = promSeries{name: line[:sp]}
			rest = line[sp:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value of %q: %w", line, err)
		}
		snap[key] = v
	}
	return snap, sc.Err()
}

// sub returns s minus before, series by series; a series absent from before
// (the servers hide series until first use) counts from 0.
func (s promSnapshot) sub(before promSnapshot) promSnapshot {
	out := make(promSnapshot, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates other into s, for summing the replicas of a federation.
func (s promSnapshot) add(other promSnapshot) {
	for k, v := range other {
		s[k] += v
	}
}

// sum adds up every series of the named metric whose label set contains all
// the given `key="value"` fragments.
func (s promSnapshot) sum(name string, match ...string) float64 {
	var total float64
series:
	for k, v := range s {
		if k.name != name {
			continue
		}
		for _, m := range match {
			if !strings.Contains(k.labels, m) {
				continue series
			}
		}
		total += v
	}
	return total
}

// histMean is the mean of a histogram over the snapshot (normally a delta):
// name_sum / name_count, 0 when nothing was observed.
func (s promSnapshot) histMean(name string, match ...string) float64 {
	count := s.sum(name+"_count", match...)
	if count == 0 {
		return 0
	}
	return s.sum(name+"_sum", match...) / count
}
