package server

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"neuroselect/internal/core"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
)

func TestBreakerStateMachine(t *testing.T) {
	clock := time.Unix(0, 0)
	b := newBreaker(3, time.Minute)
	b.now = func() time.Time { return clock }

	var flips []breakerState
	b.onFlip = func(to breakerState) { flips = append(flips, to) }

	// Two failures stay below threshold; a success resets the streak.
	b.Record(false)
	b.Record(false)
	b.Record(true)
	if st := b.State(); st != breakerClosed {
		t.Fatalf("state after reset = %v, want closed", st)
	}
	// Three consecutive failures open the breaker.
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.Record(false)
	}
	if st := b.State(); st != breakerOpen {
		t.Fatalf("state after threshold = %v, want open", st)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed an inference inside the cooldown")
	}
	// Cooldown elapses → half-open with a single probe.
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if st := b.State(); st != breakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", st)
	}
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	// Probe fails → re-open for another cooldown.
	b.Record(false)
	if st := b.State(); st != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	// Next probe succeeds → closed.
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("re-cooled breaker refused the probe")
	}
	b.Record(true)
	if st := b.State(); st != breakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	want := []breakerState{breakerOpen, breakerHalfOpen, breakerOpen, breakerHalfOpen, breakerClosed}
	if len(flips) != len(want) {
		t.Fatalf("transition hook fired %d times (%v), want %v", len(flips), flips, want)
	}
	for i := range want {
		if flips[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v (all: %v)", i, flips[i], want[i], flips)
		}
	}
}

func testSelector() *portfolio.Selector {
	return portfolio.NewSelector(
		core.NewModel(core.Config{Hidden: 8, HGTLayers: 1, MPLayers: 1, Attention: true, Seed: 1}))
}

// TestBreakerTripsOnInferenceFaults drives the server-level integration:
// consecutive injected inference failures open the breaker, subsequent
// requests skip the model and report the breaker-open fallback, /healthz
// exposes the state, and the metrics account for every path.
func TestBreakerTripsOnInferenceFaults(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	s, ts := newTestServer(t, Config{
		Workers:          1,
		CacheSize:        -1, // no cache, no dedup keys: every request infers
		Selector:         testSelector(),
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // never half-opens within the test
	})
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{Err: errors.New("model wedged")})
	reducing := reducingSAT(t)

	// Two failing inferences trip the breaker; both requests still answer
	// (degraded to the default policy).
	for i := 0; i < 2; i++ {
		resp := post(t, ts.URL+"/v1/solve", reducing)
		sr, _ := decodeSolve(t, resp)
		if resp.StatusCode != 200 || sr.Status != "SAT" {
			t.Fatalf("request %d: status=%d solve=%q, want a degraded 200 SAT", i, resp.StatusCode, sr.Status)
		}
		if sr.Policy.Fallback != portfolio.FallbackError {
			t.Fatalf("request %d fallback = %q, want %q", i, sr.Policy.Fallback, portfolio.FallbackError)
		}
	}
	if st := s.brk.State(); st != breakerOpen {
		t.Fatalf("breaker state = %v, want open after %d failures", st, 2)
	}

	// The next request never reaches the (still armed) faultpoint: the
	// open breaker skips inference outright.
	before := faultpoint.Hits(faultpoint.ModelInference)
	resp := post(t, ts.URL+"/v1/solve", reducing)
	sr, _ := decodeSolve(t, resp)
	if sr.Policy.Fallback != FallbackBreakerOpen || sr.Policy.Name != "default" {
		t.Fatalf("open-breaker policy = %+v, want default via %q", sr.Policy, FallbackBreakerOpen)
	}
	if got := faultpoint.Hits(faultpoint.ModelInference); got != before {
		t.Fatalf("open breaker still performed inference (hits %d -> %d)", before, got)
	}

	// /healthz reports the degraded-but-up state.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != 200 || !strings.Contains(string(body), "breaker=open") {
		t.Fatalf("healthz = %d %q, want 200 with breaker=open", hresp.StatusCode, body)
	}

	reg := s.Registry()
	if got := reg.Counter("neuroselect_server_inference_total", "", obs.Labels{"outcome": "failure"}).Value(); got != 2 {
		t.Errorf("inference failure counter = %d, want 2", got)
	}
	if got := reg.Counter("neuroselect_server_inference_total", "", obs.Labels{"outcome": FallbackBreakerOpen}).Value(); got != 1 {
		t.Errorf("breaker-open counter = %d, want 1", got)
	}
	if got := reg.Counter("neuroselect_server_breaker_transitions_total", "", obs.Labels{"to": "open"}).Value(); got != 1 {
		t.Errorf("transition counter = %d, want 1", got)
	}
}

// TestBreakerOpenChoiceCounted pins that a choice the open breaker skips
// is counted in the selector's choices_total like every other skip, under
// fallback="breaker-open".
func TestBreakerOpenChoiceCounted(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	reg := obs.NewRegistry()
	sel := testSelector()
	sel.Obs = reg
	s, ts := newTestServer(t, Config{
		Workers:          1,
		CacheSize:        -1,
		Selector:         sel,
		Registry:         reg,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{Err: errors.New("model wedged")})
	reducing := reducingSAT(t)
	decodeSolve(t, post(t, ts.URL+"/v1/solve", reducing))
	if st := s.brk.State(); st != breakerOpen {
		t.Fatalf("breaker state = %v after a failed inference, want open", st)
	}
	for i := 0; i < 2; i++ {
		if sr, raw := decodeSolve(t, post(t, ts.URL+"/v1/solve", reducing)); sr.Policy.Fallback != FallbackBreakerOpen {
			t.Fatalf("request %d under an open breaker: %s", i, raw)
		}
	}
	if got := reg.Counter("neuroselect_portfolio_choices_total", "",
		obs.Labels{"policy": "default", "fallback": FallbackBreakerOpen}).Value(); got != 2 {
		t.Errorf("choices_total{fallback=%q} = %d, want 2", FallbackBreakerOpen, got)
	}
}

// TestBreakerGuardsPortfolioWorkerZero pins that worker 0 of a ?portfolio=
// solve makes its deferred choice behind the inference breaker, as a
// one-shot auto solve does: under an open breaker it never reaches the
// model, and the skip is counted as breaker-open.
func TestBreakerGuardsPortfolioWorkerZero(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	s, ts := newTestServer(t, Config{
		Workers:          1,
		CacheSize:        -1,
		Selector:         testSelector(),
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{Err: errors.New("model wedged")})
	reducing := reducingSAT(t)
	decodeSolve(t, post(t, ts.URL+"/v1/solve", reducing))
	if st := s.brk.State(); st != breakerOpen {
		t.Fatalf("breaker state = %v after a failed inference, want open", st)
	}
	before := faultpoint.Hits(faultpoint.ModelInference)
	sr, raw := decodeSolve(t, post(t, ts.URL+"/v1/solve?portfolio=2&deterministic=1", reducing))
	if sr.Status != "SAT" || sr.Portfolio == nil {
		t.Fatalf("portfolio solve under an open breaker: %s", raw)
	}
	if got := sr.Portfolio.Exchange[0].Config; got != "w0:default:r128" {
		t.Errorf("worker 0 config = %q, want the breaker's default w0:default:r128", got)
	}
	if got := faultpoint.Hits(faultpoint.ModelInference); got != before {
		t.Errorf("open breaker let portfolio worker 0 reach the model (hits %d -> %d)", before, got)
	}
	if got := s.Registry().Counter("neuroselect_server_inference_total", "",
		obs.Labels{"outcome": FallbackBreakerOpen}).Value(); got != 1 {
		t.Errorf("inference_total{outcome=%q} = %d, want 1", FallbackBreakerOpen, got)
	}
}
