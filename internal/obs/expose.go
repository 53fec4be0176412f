package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// formatValue renders a sample value the way the Prometheus text format
// expects: shortest representation, "+Inf"/"-Inf"/"NaN" spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeSample writes one `name{labels} value` line.
func writeSample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
}

// joinLabels merges a child's label string with an extra label pair.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// WritePrometheus writes every registered family in the Prometheus text
// exposition format (version 0.0.4): a HELP and TYPE comment per family,
// then one sample line per series, histograms expanded into cumulative
// `_bucket` series plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, c := range f.sortedChildren() {
			switch f.typ {
			case typeHistogram:
				var cum uint64
				for i := range c.counts {
					cum += c.counts[i].Load()
					le := "+Inf"
					if i < len(c.bounds) {
						le = formatValue(c.bounds[i])
					}
					writeSample(w, f.name+"_bucket",
						joinLabels(c.labels, `le="`+le+`"`), float64(cum))
				}
				writeSample(w, f.name+"_sum", c.labels, math.Float64frombits(c.sumBits.Load()))
				// Derive _count from the cumulative bucket total rather than
				// the separate count atomic: a scrape racing Observe then
				// still satisfies `_count == +Inf bucket`, which the
				// validator (and a real Prometheus server) checks.
				writeSample(w, f.name+"_count", c.labels, float64(cum))
			default:
				writeSample(w, f.name, c.labels, math.Float64frombits(c.bits.Load()))
			}
		}
	}
}

// escapeHelp escapes newlines and backslashes in a HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// HistogramStatus is the JSON summary of one histogram series: totals plus
// the aggregate percentiles /status surfaces for operators.
type HistogramStatus struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Status is the JSON representation served at GET /status.
type Status struct {
	UptimeSeconds float64                    `json:"uptimeSeconds"`
	Counters      map[string]float64         `json:"counters"`
	Gauges        map[string]float64         `json:"gauges"`
	Histograms    map[string]HistogramStatus `json:"histograms"`
}

// seriesKey names one series in the JSON maps: the family name, with the
// label string in braces when present.
func seriesKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// Snapshot captures the current state of every registered series.
func (r *Registry) Snapshot() Status {
	st := Status{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Counters:      make(map[string]float64),
		Gauges:        make(map[string]float64),
		Histograms:    make(map[string]HistogramStatus),
	}
	for _, f := range r.sortedFamilies() {
		for _, c := range f.sortedChildren() {
			key := seriesKey(f.name, c.labels)
			switch f.typ {
			case typeCounter:
				st.Counters[key] = math.Float64frombits(c.bits.Load())
			case typeGauge:
				st.Gauges[key] = math.Float64frombits(c.bits.Load())
			case typeHistogram:
				st.Histograms[key] = HistogramStatus{
					Count: c.hcount.Load(),
					Sum:   math.Float64frombits(c.sumBits.Load()),
					P50:   quantile(c, 0.50),
					P90:   quantile(c, 0.90),
					P99:   quantile(c, 0.99),
				}
			}
		}
	}
	return st
}

// MetricsHandler serves the registry in the Prometheus text format.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			methodNotAllowed(w, "GET, HEAD")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		r.WritePrometheus(w)
	})
}

// MetricsHandler serves the default registry at GET /metrics.
func MetricsHandler() http.Handler { return Default.MetricsHandler() }

// StatusHandler serves the JSON status view: every series plus aggregate
// percentiles for the histogram families.  (JSON is encoded here directly
// rather than via internal/rest, which imports this package.)
func (r *Registry) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// StatusHandler serves the default registry at GET /status.
func StatusHandler() http.Handler { return Default.StatusHandler() }

// methodNotAllowed answers a 405 in the JSON error shape every server uses
// (rest.ErrorBody, written by hand for the same reason as StatusHandler).
func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusMethodNotAllowed)
	fmt.Fprintf(w, `{"error":"method not allowed; allowed: %s","status":405}`+"\n", allow)
}
