package main

import (
	"math"
	"testing"

	"themecomm/internal/obs/promtest"
)

const scrapeBefore = `# HELP tc_cache_hits_total Result-cache hits.
# TYPE tc_cache_hits_total counter
tc_cache_hits_total{cache="shared"} 10
# HELP tc_http_requests_total Requests.
# TYPE tc_http_requests_total counter
tc_http_requests_total{route="/api/v1/query",method="GET",code="200"} 100
tc_http_requests_total{route="/api/v1/query",method="GET",code="400"} 1
tc_http_requests_total{route="/healthz",method="GET",code="200"} 5
# HELP tc_query_stage_duration_seconds Stage latency.
# TYPE tc_query_stage_duration_seconds histogram
tc_query_stage_duration_seconds_bucket{network="bench",stage="plan",le="0.001"} 4
tc_query_stage_duration_seconds_bucket{network="bench",stage="plan",le="+Inf"} 4
tc_query_stage_duration_seconds_sum{network="bench",stage="plan"} 0.002
tc_query_stage_duration_seconds_count{network="bench",stage="plan"} 4
tc_query_stage_duration_seconds_bucket{network="bench",stage="execute",le="0.001"} 0
tc_query_stage_duration_seconds_bucket{network="bench",stage="execute",le="+Inf"} 4
tc_query_stage_duration_seconds_sum{network="bench",stage="execute"} 0.4
tc_query_stage_duration_seconds_count{network="bench",stage="execute"} 4
`

const scrapeAfter = `# HELP tc_cache_hits_total Result-cache hits.
# TYPE tc_cache_hits_total counter
tc_cache_hits_total{cache="shared"} 70
# HELP tc_http_requests_total Requests.
# TYPE tc_http_requests_total counter
tc_http_requests_total{route="/api/v1/query",method="GET",code="200"} 180
tc_http_requests_total{route="/api/v1/query",method="GET",code="400"} 3
tc_http_requests_total{route="/healthz",method="GET",code="200"} 6
# HELP tc_query_stage_duration_seconds Stage latency.
# TYPE tc_query_stage_duration_seconds histogram
tc_query_stage_duration_seconds_bucket{network="bench",stage="plan",le="0.001"} 14
tc_query_stage_duration_seconds_bucket{network="bench",stage="plan",le="+Inf"} 14
tc_query_stage_duration_seconds_sum{network="bench",stage="plan"} 0.007
tc_query_stage_duration_seconds_count{network="bench",stage="plan"} 14
tc_query_stage_duration_seconds_bucket{network="bench",stage="execute",le="0.001"} 0
tc_query_stage_duration_seconds_bucket{network="bench",stage="execute",le="+Inf"} 14
tc_query_stage_duration_seconds_sum{network="bench",stage="execute"} 2.4
tc_query_stage_duration_seconds_count{network="bench",stage="execute"} 14
`

func TestMetricsDeltaArithmetic(t *testing.T) {
	parse := func(text string) scrape {
		fams, err := promtest.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return fams
	}
	d := metricsDelta{before: parse(scrapeBefore), after: parse(scrapeAfter)}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	near("cache hits", d.counter("tc_cache_hits_total"), 60)
	near("all requests", d.counter("tc_http_requests_total"), 83)
	near("query 200s", d.counter("tc_http_requests_total", "route", "/api/v1/query", "code", "200"), 80)
	near("non-200", d.counter("tc_http_requests_total")-d.counter("tc_http_requests_total", "code", "200"), 2)
	// Histogram mean over the window only: Δsum ÷ Δcount, per label set.
	near("plan mean", d.histMean("tc_query_stage_duration_seconds", "stage", "plan"), 0.005/10)
	near("execute mean", d.histMean("tc_query_stage_duration_seconds", "stage", "execute"), 2.0/10)
	// Without a label filter the stages pool: Δsum 2.005 over Δcount 20.
	near("pooled mean", d.histMean("tc_query_stage_duration_seconds"), 2.005/20)
	near("absent family", d.counter("tc_no_such_total"), 0)
	near("absent histogram", d.histMean("tc_no_such_seconds"), 0)
	near("idle histogram", metricsDelta{before: d.after, after: d.after}.histMean("tc_query_stage_duration_seconds"), 0)
	near("ratio of nothing", ratio(3, 0), 0)
}
