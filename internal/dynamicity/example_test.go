package dynamicity_test

import (
	"fmt"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
)

// The Section 4 heuristic over a hand-built count series: a /24 whose
// address count swings between weekdays and weekends is dynamic; a flat
// one is not.
func ExampleAnalyze() {
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC) // a Monday
	series := dataset.NewCountSeries(dataset.DateRange(start, start.AddDate(0, 0, 89), 1))
	office := dnswire.MustPrefix("192.0.2.0/24")
	static := dnswire.MustPrefix("198.51.100.0/24")
	for i, d := range series.Dates {
		if d.Weekday() == time.Saturday || d.Weekday() == time.Sunday {
			series.Add(office, i, 35)
		} else {
			series.Add(office, i, 120)
		}
		series.Add(static, i, 200)
	}
	res := dynamicity.Analyze(series, dynamicity.PaperConfig())
	for _, p := range res.DynamicPrefixes {
		fmt.Println("dynamic:", p)
	}
	fmt.Println("considered:", res.ConsideredPrefixes, "of", res.TotalPrefixes)
	// Output:
	// dynamic: 192.0.2.0/24
	// considered: 2 of 2
}
