package core

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
}

// Routes is the HTTP surface of every MathCloud server: the service, job,
// sweep and file resources of the paper's Table 1 first, then the
// infrastructure and server-specific routes.  Servers build their
// http.ServeMux from it (rest.NewMux); every path it does not match answers
// a JSON 404.
var Routes = []Route{
	{"/{$}", "index", false, allTiers},
	{"/services/{name}", "service", false, apiTiers},
	{"/services/{name}/jobs", "job_list", false, apiTiers},
	{"/services/{name}/jobs/{id}", "job", false, apiTiers},
	{"/services/{name}/jobs/{id}/events", "job_events", false, apiTiers},
	{"/services/{name}/sweeps", "sweep_list", false, apiTiers},
	{"/services/{name}/sweeps/{id}", "sweep", false, apiTiers},
	{"/services/{name}/sweeps/{id}/jobs", "sweep_jobs", false, apiTiers},
	{"/services/{name}/sweeps/{id}/events", "sweep_events", false, apiTiers},
	{"/services/{name}/events", "service_events", false, apiTiers},
	{"/files", "file", false, apiTiers},
	{"/files/{id}", "file", false, apiTiers},

	{"/metrics", "metrics", true, allTiers},
	{"/status", "status", true, allTiers},
	{"/load", "load", true, replicaTiers},
	{"/memo", "memo", true, replicaTiers},

	{"/replicas", "replicas", false, TierGateway},
	{"/search", "search", false, TierGateway | TierCatalogue},
	{"/workflows", "workflows", false, TierWMS},
	{"/workflows/{name}", "workflows", false, TierWMS},
	{"/editor", "editor", false, TierWMS},
	{"/services", "service", false, TierCatalogue},
	{"/tags", "tags", false, TierCatalogue},
	{"/ping", "ping", false, TierCatalogue},
}
