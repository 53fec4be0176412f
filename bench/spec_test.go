package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// contractFile mirrors BENCHMARK.json.
type contractFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []contractE2E  `json:"end_to_end"`
	PerLayer   []contractLay  `json:"per_layer"`
}

type contractE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLay struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readContract(t *testing.T) contractFile {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// reports: spec.go is the source, the file is checked against it.
func TestContractMatchesSpec(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n file %+v\n spec %+v", c.Workloads, workloadSpecs)
	}
	var e2e []contractE2E
	for _, m := range endToEnd {
		e2e = append(e2e, contractE2E{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !reflect.DeepEqual(c.EndToEnd, e2e) {
		t.Errorf("end_to_end differs:\n file %+v\n spec %+v", c.EndToEnd, e2e)
	}
	var layers []contractLay
	for _, m := range perLayer {
		layers = append(layers, contractLay{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(c.PerLayer, layers) {
		t.Errorf("per_layer differs:\n file %+v\n spec %+v", c.PerLayer, layers)
	}
	if !reflect.DeepEqual(c.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", c.Paths)
	}
	if len(workloads) != len(workloadSpecs) {
		t.Errorf("%d workloads implemented, %d specified", len(workloads), len(workloadSpecs))
	}
}

// The limits the driver refuses a contract for.
func TestContractLimits(t *testing.T) {
	c := readContract(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range c.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, m := range c.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks a limit", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range c.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v breaks a limit", m)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", c.RunSeconds)
	}
	if len(c.Command) == 0 || len(c.Command) > 32 {
		t.Errorf("command has %d words, want 1 to 32", len(c.Command))
	}
}

// Every per-layer metric says which end-to-end metric it should move, and
// the README's tables name every workload and metric.
func TestReadmeCoversSpec(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, w := range workloadSpecs {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not mention metric %s", m.Name)
		}
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per-layer metric %s does not say what it is expected to move", m.Name)
		}
	}
}
