package core

import "strings"

// Tier is a set of MathCloud server kinds: the route table's "who answers
// this" column.
type Tier uint8

const (
	TierContainer Tier = 1 << iota // everest: the unified REST API
	TierGateway                    // mcgw: the same API over a federation
	TierWMS                        // wms: a container plus the workflow routes
	TierCatalogue                  // catalogue: publication and search
)

// apiTiers serve the unified REST API of Table 1; replicaTiers are the ones
// that hold jobs themselves and feed a gateway's placement.
const (
	apiTiers     = TierContainer | TierGateway | TierWMS
	replicaTiers = TierContainer | TierWMS
	allTiers     = apiTiers | TierCatalogue
)

// Route is one row of the route table.
type Route struct {
	// Pattern is a method-less http.ServeMux pattern.  Handlers check the
	// method themselves, so a wrong one answers a JSON 405 with Allow.
	Pattern string
	// Label names the route in mc_http_requests_total and the request log.
	// Routes that share a label share one handler.
	Label string
	// Infra routes answer before the security guard: they expose aggregates
	// and placement data, never job data.
	Infra bool
	// Tiers is the set of servers that answer the route.
	Tiers Tier
	// Direct routes name one resource by {id}, and may be sent straight to
	// the replica the ID's prefix names: a gateway answers them with a 307
	// there to a client that prefers routes (RoutePreference), and such a
	// client goes there itself once it knows the replica's address.  Event
	// streams are not direct: the gateway multiplexes them.
	Direct bool
}

// Routes is the HTTP surface of every MathCloud server: the service, job,
// sweep and file resources of the paper's Table 1 first, then the
// infrastructure and server-specific routes.  Servers build their
// http.ServeMux from it (rest.NewMux); every path it does not match answers
// a JSON 404.
var Routes = []Route{
	// Pattern, Label, Infra, Tiers, Direct
	{"/{$}", "index", false, allTiers, false},
	{"/services/{name}", "service", false, apiTiers, false},
	{"/services/{name}/jobs", "job_list", false, apiTiers, false},
	{"/services/{name}/jobs/{id}", "job", false, apiTiers, true},
	{"/services/{name}/jobs/{id}/events", "job_events", false, apiTiers, false},
	{"/services/{name}/sweeps", "sweep_list", false, apiTiers, false},
	{"/services/{name}/sweeps/{id}", "sweep", false, apiTiers, true},
	{"/services/{name}/sweeps/{id}/jobs", "sweep_jobs", false, apiTiers, true},
	{"/services/{name}/sweeps/{id}/events", "sweep_events", false, apiTiers, false},
	{"/services/{name}/events", "service_events", false, apiTiers, false},
	{"/files", "file", false, apiTiers, false},
	{"/files/{id}", "file", false, apiTiers, true},

	{"/metrics", "metrics", true, allTiers, false},
	{"/status", "status", true, allTiers, false},
	{"/load", "load", true, replicaTiers, false},

	{"/replicas", "replicas", false, TierGateway, false},
	{"/search", "search", false, TierGateway | TierCatalogue, false},
	{"/workflows", "workflows", false, TierWMS, false},
	{"/workflows/{name}", "workflows", false, TierWMS, false},
	{"/editor", "editor", false, TierWMS, false},
	{"/services", "service", false, TierCatalogue, false},
	{"/tags", "tags", false, TierCatalogue, false},
	{"/ping", "ping", false, TierCatalogue, false},
}

// DirectID reports whether path, relative to a server's base, is a Direct
// route, and the {id} it names.
func DirectID(path string) (id string, ok bool) {
	for _, rt := range Routes {
		if rt.Direct {
			if id, ok := matchID(rt.Pattern, path); ok {
				return id, true
			}
		}
	}
	return "", false
}

// matchID matches path against pattern segment by segment — a wildcard
// takes any non-empty segment — and returns the segment {id} took.
func matchID(pattern, path string) (id string, ok bool) {
	for {
		pat, patRest, patMore := strings.Cut(pattern, "/")
		seg, segRest, segMore := strings.Cut(path, "/")
		switch {
		case strings.HasPrefix(pat, "{") && seg == "":
			return "", false
		case pat == "{id}":
			id = seg
		case !strings.HasPrefix(pat, "{") && pat != seg:
			return "", false
		}
		if !patMore || !segMore {
			return id, patMore == segMore
		}
		pattern, path = patRest, segRest
	}
}
