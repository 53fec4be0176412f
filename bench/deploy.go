package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mathcloud/internal/client"
)

// servicesJSON is the everest -config every server of the benchmark is
// deployed from.  It uses only adapters that ship (script, command):
//
//	inc     out.y = in.x + 1, not deterministic (every submit runs)
//	incdet  the same, declared deterministic (resubmits hit the memo cache)
//	copy    cp {data.path} out.bin, published as the output file "copy"
const servicesJSON = `{"services": [
 {"description": {"name": "inc",
   "inputs":  [{"name": "x", "schema": {"type": "number"}}],
   "outputs": [{"name": "y", "schema": {"type": "number"}}]},
  "adapter": {"kind": "script", "config": {"script": "out.y = in.x + 1"}}},
 {"description": {"name": "incdet", "deterministic": true,
   "inputs":  [{"name": "x", "schema": {"type": "number"}}],
   "outputs": [{"name": "y", "schema": {"type": "number"}}]},
  "adapter": {"kind": "script", "config": {"script": "out.y = in.x + 1"}}},
 {"description": {"name": "copy",
   "inputs":  [{"name": "data", "schema": {"type": "string"}}],
   "outputs": [{"name": "copy", "schema": {"type": "string"}}]},
  "adapter": {"kind": "command", "config": {"command": "cp",
    "args": ["{data.path}", "out.bin"], "outputFiles": {"copy": "out.bin"}}}}
]}
`

// topology is the shape of the system a workload runs against.
type topology int

const (
	direct    topology = iota // one everest, journaling off
	directWAL                 // one everest with -data-dir and -wal-sync batch
	federated                 // mcgw in front of two everest replicas
)

// controlHTTP carries everything that is not measured traffic: readiness
// polls and /metrics scrapes.
var controlHTTP = &http.Client{Timeout: 10 * time.Second}

// deployment is one running system under test.
type deployment struct {
	h        *harness
	dir      string
	base     string   // the URL clients talk to
	everests []*child // container processes, scraped for container metrics
	gateway  *child   // nil unless federated
}

// deploy launches the servers of a topology and returns once the URL
// clients will use answers its index with every service listed.  Every
// server gets an explicit -base-url (with -addr host:port alone everest
// mints broken URIs) and an absolute data directory (a relative -data breaks
// {param.path} in the command adapter).
func (h *harness) deploy(ctx context.Context, topo topology) (*deployment, error) {
	h.seq++
	seq := h.seq
	d := &deployment{h: h, dir: filepath.Join(h.runDir, fmt.Sprintf("dep-%d", seq))}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	if err := d.launch(ctx, topo, seq); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *deployment) launch(ctx context.Context, topo topology, seq int) error {
	if topo != federated {
		addrs, err := freeAddrs(1)
		if err != nil {
			return err
		}
		d.base = "http://" + addrs[0]
		args := []string{"-addr", addrs[0], "-base-url", d.base, "-config", d.h.config}
		if topo == directWAL {
			args = append(args, "-data-dir", filepath.Join(d.dir, "data"), "-wal-sync", "batch")
		} else {
			args = append(args, "-data", filepath.Join(d.dir, "data"))
		}
		_, err = d.startEverest(ctx, fmt.Sprintf("everest-%d", seq), d.base, args)
		return err
	}

	addrs, err := freeAddrs(3) // the gateway's, then one per replica
	if err != nil {
		return err
	}
	d.base = "http://" + addrs[0]
	var members []string
	for i, name := range []string{"r01", "r02"} {
		url := "http://" + addrs[1+i]
		args := []string{"-addr", addrs[1+i], "-base-url", d.base, "-config", d.h.config,
			"-data", filepath.Join(d.dir, name), "-replica", name}
		if _, err := d.startEverest(ctx, fmt.Sprintf("%s-%d", name, seq), url, args); err != nil {
			return err
		}
		members = append(members, name+"="+url)
	}
	gw, err := d.h.start(fmt.Sprintf("mcgw-%d", seq), d.base, "mcgw",
		"-addr", addrs[0], "-replicas", strings.Join(members, ","))
	if err != nil {
		return err
	}
	d.gateway = gw
	// mcgw probes its replicas once before it listens; it is ready when its
	// merged index lists the services of the config.
	api := &client.Client{HTTP: controlHTTP}
	return gw.waitReady(ctx, func(ctx context.Context) bool {
		names, err := api.ServiceNames(ctx, d.base)
		return err == nil && len(names) == 3
	})
}

func (d *deployment) startEverest(ctx context.Context, name, url string, args []string) (*child, error) {
	c, err := d.h.start(name, url, "everest", args...)
	if err != nil {
		return nil, err
	}
	d.everests = append(d.everests, c)
	err = c.waitReady(ctx, func(ctx context.Context) bool { return indexAnswers(ctx, url) })
	return c, err
}

// crashAndRecover SIGKILLs the (single) everest of a directWAL deployment,
// restarts it on the same directory and returns the time from the kill to
// the index answering again.
func (d *deployment) crashAndRecover(ctx context.Context) (time.Duration, error) {
	old := d.everests[0]
	start := time.Now()
	old.kill()
	d.h.forget(old)
	d.everests = nil
	if _, err := d.startEverest(ctx, old.name, old.url, old.args); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (d *deployment) children() []*child {
	if d.gateway == nil {
		return d.everests
	}
	return append(append([]*child(nil), d.everests...), d.gateway)
}

// cmdlines are the exact command lines of the deployment's processes.
func (d *deployment) cmdlines() []string {
	var out []string
	for _, c := range d.children() {
		out = append(out, c.bin+" "+strings.Join(c.args, " "))
	}
	return out
}

// stop kills the deployment's processes and removes its directory.
func (d *deployment) stop() {
	for _, c := range d.children() {
		c.kill()
		d.h.forget(c)
	}
	_ = os.RemoveAll(d.dir)
}

// scrape fetches and parses one server's /metrics.
func scrape(ctx context.Context, url string) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := controlHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}

// counters is one reading of everything the harness samples around a
// window: the replicas' /metrics (summed, and per replica for placement),
// the gateway's /metrics, and CPU time by program.
type counters struct {
	everest    promSnapshot
	perReplica []promSnapshot
	gateway    promSnapshot
	everestCPU time.Duration
	gatewayCPU time.Duration
	selfCPU    time.Duration
}

func (d *deployment) read(ctx context.Context) (*counters, error) {
	c := &counters{everest: promSnapshot{}, gateway: promSnapshot{}}
	for _, e := range d.everests {
		snap, err := scrape(ctx, e.url)
		if err != nil {
			return nil, err
		}
		c.perReplica = append(c.perReplica, snap)
		c.everest.add(snap)
		cpu, err := procCPU(e.pid())
		if err != nil {
			return nil, err
		}
		c.everestCPU += cpu
	}
	if d.gateway != nil {
		snap, err := scrape(ctx, d.gateway.url)
		if err != nil {
			return nil, err
		}
		c.gateway = snap
		if c.gatewayCPU, err = procCPU(d.gateway.pid()); err != nil {
			return nil, err
		}
	}
	var err error
	c.selfCPU, err = procCPU(os.Getpid())
	return c, err
}
