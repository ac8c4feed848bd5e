package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"themecomm/internal/obs/promtest"
)

// scrape is one parsed GET /metrics payload. Per-layer counts come from the
// difference of two scrapes taken around the measured window: the program's
// own production signals, not a second benchmark-only instrumentation.
type scrape map[string]*promtest.Family

func scrapeMetrics(base string) (scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	fams, err := promtest.Parse(string(body))
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return fams, nil
}

// sum adds up the samples called name (a family name, or a histogram's
// _sum/_count series) whose labels include every given key=value pair.
func (s scrape) sum(name string, labels ...string) float64 {
	fam := s[name]
	for _, suffix := range []string{"_sum", "_count"} {
		if fam == nil && strings.HasSuffix(name, suffix) {
			fam = s[strings.TrimSuffix(name, suffix)]
		}
	}
	if fam == nil {
		return 0
	}
	total := 0.0
sample:
	for _, smp := range fam.Samples {
		if smp.Name != name {
			continue
		}
		for i := 0; i+1 < len(labels); i += 2 {
			if smp.Labels[labels[i]] != labels[i+1] {
				continue sample
			}
		}
		total += smp.Value
	}
	return total
}

// metricsDelta is the movement between two scrapes.
type metricsDelta struct{ before, after scrape }

// counter is how far a counter family moved across the window.
func (d metricsDelta) counter(name string, labels ...string) float64 {
	return d.after.sum(name, labels...) - d.before.sum(name, labels...)
}

// histMean is the mean of the observations a histogram family took during
// the window (Δsum ÷ Δcount), in the family's own unit; 0 when it took none.
func (d metricsDelta) histMean(family string, labels ...string) float64 {
	count := d.counter(family+"_count", labels...)
	if count <= 0 {
		return 0
	}
	return d.counter(family+"_sum", labels...) / count
}

// ratio is useful outcomes over attempts, 0 when nothing was attempted.
func ratio(useful, attempts float64) float64 {
	if attempts <= 0 {
		return 0
	}
	return useful / attempts
}
