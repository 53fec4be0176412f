package core

import (
	"sort"
	"time"
)

// SweepSpec is the body of POST /services/{name}/sweeps: one request that
// expands into many jobs of the same service.  The paper's flagship
// applications are campaigns of near-identical requests — thousands of
// scattering-curve simulations, pools of solver runs — and a sweep submits
// a whole campaign in one HTTP round trip.
//
// Shared inputs go in Template; the varying inputs are given either as Axes
// (per-parameter value lists whose cross product is enumerated) or as an
// explicit Points list.  Each resulting point is merged over the template,
// with the point's values winning on conflicting names.
type SweepSpec struct {
	// Template holds the input values shared by every point of the sweep.
	Template Values `json:"template,omitempty"`
	// Axes maps input parameter names to the values each one ranges over;
	// the sweep enumerates their full cross product in row-major order of
	// the sorted axis names.  Mutually exclusive with Points.
	Axes map[string][]any `json:"axes,omitempty"`
	// Points lists explicit parameter combinations.  Mutually exclusive
	// with Axes.
	Points []Values `json:"points,omitempty"`
	// Destruction is the sweep's retention TTL: once every child is
	// terminal, the sweep and its children are purged this long after the
	// last child lands.  Zero inherits the container's default job TTL.
	Destruction Duration `json:"destruction,omitempty"`
}

// Width returns the number of jobs the spec expands to: the product of the
// axis lengths, or the number of explicit points.
func (s *SweepSpec) Width() int {
	if len(s.Points) > 0 {
		return len(s.Points)
	}
	if len(s.Axes) == 0 {
		return 0
	}
	w := 1
	for _, vals := range s.Axes {
		w *= len(vals)
	}
	return w
}

// Expand enumerates the per-point input overrides of the sweep (the values
// that vary; the template is not merged in, so callers can stage and hash
// the shared part once).  The expansion is deterministic: explicit points in
// list order, axes in row-major order of the sorted axis names.  maxWidth
// bounds the expansion; zero or negative means no bound.
func (s *SweepSpec) Expand(maxWidth int) ([]Values, error) {
	if len(s.Axes) > 0 && len(s.Points) > 0 {
		return nil, ErrBadRequest("sweep: specify axes or points, not both")
	}
	if len(s.Points) > 0 {
		if maxWidth > 0 && len(s.Points) > maxWidth {
			return nil, ErrBadRequest("sweep: %d points exceed the maximum sweep width %d", len(s.Points), maxWidth)
		}
		out := make([]Values, len(s.Points))
		for i, p := range s.Points {
			if p == nil {
				p = Values{}
			}
			out[i] = p
		}
		return out, nil
	}
	if len(s.Axes) == 0 {
		return nil, ErrBadRequest("sweep: empty specification: provide axes or points")
	}
	names := make([]string, 0, len(s.Axes))
	width := 1
	for name, vals := range s.Axes {
		if len(vals) == 0 {
			return nil, ErrBadRequest("sweep: axis %q has no values", name)
		}
		names = append(names, name)
		if maxWidth > 0 && width > maxWidth/len(vals) {
			return nil, ErrBadRequest("sweep: axes exceed the maximum sweep width %d", maxWidth)
		}
		width *= len(vals)
	}
	sort.Strings(names)
	out := make([]Values, width)
	for i := range out {
		point := make(Values, len(names))
		idx := i
		// Row-major: the last (sorted) axis varies fastest.
		for k := len(names) - 1; k >= 0; k-- {
			vals := s.Axes[names[k]]
			point[names[k]] = vals[idx%len(vals)]
			idx /= len(vals)
		}
		out[i] = point
	}
	return out, nil
}

// MergePoint returns the full input map of one point: the template with the
// point's overrides applied.  Neither argument is mutated.  With an empty
// template the point itself is the merged map, so the caller must not write
// to the result.
func (s *SweepSpec) MergePoint(override Values) Values {
	if len(s.Template) == 0 && override != nil {
		return override
	}
	merged := make(Values, len(s.Template)+len(override))
	for k, v := range s.Template {
		merged[k] = v
	}
	for k, v := range override {
		merged[k] = v
	}
	return merged
}

// SweepCounts is the aggregate child-state histogram of a sweep.  Its size
// is fixed, so sweep status stays O(1) with respect to the sweep width.
type SweepCounts struct {
	Waiting   int `json:"waiting"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Error     int `json:"error"`
	Cancelled int `json:"cancelled"`
}

// Terminal returns how many children have reached a terminal state.
func (c SweepCounts) Terminal() int { return c.Done + c.Error + c.Cancelled }

// Sweep is the server-side record of one parameter sweep, exposed through
// the sweep resource of the REST API.  It aggregates its children: the
// representation carries counts, not the child list, so polling it at width
// 1000+ costs the same as polling a single job.
type Sweep struct {
	// ID identifies the sweep within its container.
	ID string `json:"id"`
	// Service is the name of the service the children belong to.
	Service string `json:"service"`
	// State summarises the sweep: RUNNING while any child is non-terminal,
	// then ERROR if any child failed, CANCELLED if any was cancelled (and
	// none failed), DONE otherwise.
	State JobState `json:"state"`
	// Width is the total number of child jobs.
	Width int `json:"width"`
	// Counts breaks the children down by state.
	Counts SweepCounts `json:"counts"`
	// FirstError carries the error message of the first child that failed,
	// so a failing campaign surfaces its cause without a child-list scan.
	FirstError string `json:"firstError,omitempty"`
	// Created and Finished delimit the sweep's lifetime; Finished is set
	// when the last child reaches a terminal state.
	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished,omitempty"`
	// Destruction is the instant after which the reaper may purge the
	// terminal sweep and its children (zero = kept until DELETE).
	Destruction time.Time `json:"destruction,omitempty"`
	// Owner is the authenticated identity that submitted the sweep.
	Owner string `json:"owner,omitempty"`
	// TraceID is the request identifier of the submitting HTTP request;
	// every child job carries the same ID.
	TraceID string `json:"traceId,omitempty"`
	// URI is the absolute resource identifier of the sweep; JobsURI lists
	// its children (state-filterable and paginated).
	URI     string `json:"uri,omitempty"`
	JobsURI string `json:"jobsUri,omitempty"`
}

// AggregateState derives the summary state of a sweep with the given width
// from its child-state counts: RUNNING while any child is non-terminal,
// then ERROR > CANCELLED > DONE by severity.
func (c SweepCounts) AggregateState(width int) JobState {
	if c.Terminal() < width {
		return StateRunning
	}
	switch {
	case c.Error > 0:
		return StateError
	case c.Cancelled > 0:
		return StateCancelled
	default:
		return StateDone
	}
}
