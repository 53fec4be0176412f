package gateway_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mathcloud/internal/adapter"
	"mathcloud/internal/catalogue"
	"mathcloud/internal/container"
	"mathcloud/internal/core"
	"mathcloud/internal/gateway"
	"mathcloud/internal/obs"
	"mathcloud/internal/rest"
	"mathcloud/internal/workflow"
)

// requestCount reads mc_http_requests_total for one (route, method, class).
func requestCount(route, method, class string) float64 {
	return obs.NewCounterVec("mc_http_requests_total", "", "route", "method", "code").
		With(route, method, class).Value()
}

// wantJSONError checks that resp is a JSON rest.ErrorBody with status code.
func wantJSONError(t *testing.T, what string, resp *http.Response, code int) {
	t.Helper()
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var body rest.ErrorBody
	if resp.StatusCode != code || json.Unmarshal(data, &body) != nil || body.Status != code || body.Error == "" {
		t.Errorf("%s: %d %q, want a JSON %d error body", what, resp.StatusCode, data, code)
	}
}

func do(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp
}

// TestRouteTableConformance drives every core.Routes entry through each
// server tier: an entry the tier answers is served by its handler (not the
// 404 catch-all), counted under its label, and answers PUT — which no route
// allows — with a JSON 405 and Allow; an entry of another tier, like any
// unknown path, gets the JSON 404 and counts as "other".
func TestRouteTableConformance(t *testing.T) {
	adapter.RegisterFunc("gwtest.add", addFunc())
	svc := numService(t, "add", "gwtest.add", false)
	newContainer := func() *container.Container {
		c, err := container.New(container.Options{Workers: 2, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.Deploy(svc); err != nil {
			t.Fatal(err)
		}
		return c
	}
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	r1, r2 := startReplica(t, "r01", svc), startReplica(t, "r02", svc)
	_, gw := startGateway(t, gateway.Options{LoadInterval: -1}, r1, r2)
	wmsContainer := newContainer()
	wms := workflow.NewWMS(wmsContainer, adapter.NewRegistry(), nil, nil)
	tiers := []struct {
		name string
		tier core.Tier
		base string
	}{
		{"container", core.TierContainer, serve(newContainer().Handler())},
		{"wms", core.TierWMS, serve(wms.Handler())},
		{"gateway", core.TierGateway, gw.URL},
		{"catalogue", core.TierCatalogue, serve(obs.Instrument(catalogue.New(nil).Handler()))},
	}
	for _, tc := range tiers {
		t.Run(tc.name, func(t *testing.T) {
			paths := strings.NewReplacer("{$}", "", "{name}", "add")
			if tc.tier != core.TierCatalogue {
				// Real resources, so ID-routed requests reach their handler.
				_, job := postJSON(t, tc.base+"/services/add?wait=5s", map[string]any{"a": 1})
				_, sweep := postJSON(t, tc.base+"/services/add/sweeps?wait=5s",
					map[string]any{"template": map[string]any{}, "axes": map[string]any{"a": []int{1, 2}}})
				resp, err := http.Post(tc.base+"/files", "application/octet-stream", strings.NewReader("data"))
				if err != nil {
					t.Fatal(err)
				}
				var file map[string]string
				_ = json.NewDecoder(resp.Body).Decode(&file)
				resp.Body.Close()
				paths = strings.NewReplacer("{$}", "", "{name}", "add",
					"/jobs/{id}", "/jobs/"+job["id"].(string),
					"/sweeps/{id}", "/sweeps/"+sweep["id"].(string),
					"/files/{id}", "/files/"+file["id"])
			}
			for _, rt := range core.Routes {
				url := tc.base + paths.Replace(rt.Pattern)
				if rt.Tiers&tc.tier == 0 {
					before := requestCount("other", http.MethodPut, "4xx")
					wantJSONError(t, "PUT "+rt.Pattern, do(t, http.MethodPut, url), http.StatusNotFound)
					if requestCount("other", http.MethodPut, "4xx") <= before {
						t.Errorf("PUT %s: not counted as route \"other\"", rt.Pattern)
					}
					continue
				}
				before := requestCount(rt.Label, http.MethodPut, "4xx")
				resp := do(t, http.MethodPut, url)
				if resp.Header.Get("Allow") == "" {
					t.Errorf("PUT %s: 405 without Allow", rt.Pattern)
				}
				wantJSONError(t, "PUT "+rt.Pattern, resp, http.StatusMethodNotAllowed)
				if requestCount(rt.Label, http.MethodPut, "4xx") <= before {
					t.Errorf("PUT %s: not counted under route %q", rt.Pattern, rt.Label)
				}
			}
			if tc.tier == core.TierGateway {
				// Among the routes that name a resource, the Direct ones and
				// only they are redirected for a client that prefers routes.
				noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
				for _, rt := range core.Routes {
					if !strings.Contains(rt.Pattern, "{id}") {
						continue
					}
					req, _ := http.NewRequest(http.MethodGet, tc.base+paths.Replace(rt.Pattern), nil)
					req.Header.Set("Prefer", core.RoutePreference)
					resp, err := noFollow.Do(req)
					if err != nil {
						t.Fatalf("GET %s: %v", rt.Pattern, err)
					}
					resp.Body.Close()
					if redirected := resp.StatusCode == http.StatusTemporaryRedirect; redirected != rt.Direct {
						t.Errorf("GET %s asking for a route: status %d, Direct is %v", rt.Pattern, resp.StatusCode, rt.Direct)
					}
				}
			}
			for _, p := range []string{"/nope", "/memo", "/memo?since=0", "/services/add/", "/services/add/jobs/x/extra", "/files/x/y"} {
				before := requestCount("other", http.MethodGet, "4xx")
				wantJSONError(t, "GET "+p, do(t, http.MethodGet, tc.base+p), http.StatusNotFound)
				if requestCount("other", http.MethodGet, "4xx") <= before {
					t.Errorf("GET %s: not counted as route \"other\"", p)
				}
			}
		})
	}

	before := requestCount("replicas", http.MethodGet, "2xx")
	if resp, _ := getJSON(t, gw.URL+"/replicas"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /replicas: %d", resp.StatusCode)
	}
	if requestCount("replicas", http.MethodGet, "2xx") <= before {
		t.Error(`gateway GET /replicas not counted under route "replicas"`)
	}
}
