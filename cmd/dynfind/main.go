// Command dynfind runs the Section 4 dynamicity heuristic over a
// longitudinal history store (the store cmd/rdnsscan -store and the
// campaigns write and cmd/rdnsd serves; see docs/storage.md) and reports
// which /24 prefixes expose dynamic client behaviour.
//
//	dynfind -store campaign.hist [-x 10] [-y 7] [-min 10]
//
// The store is read one bounded page of rows at a time
// (histstore.Store.EachRow); only the count series is held. The Section
// 4.1 validation against a ground-truth campus is `experiments -exp
// validation`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/histstore"
)

func main() {
	storePath := flag.String("store", "", "longitudinal history store to read (see docs/storage.md)")
	x := flag.Float64("x", 10, "change percentage threshold X")
	y := flag.Int("y", 7, "minimum change days Y")
	minAddr := flag.Int("min", 10, "minimum daily addresses to consider a /24")
	flag.Parse()

	if *storePath == "" {
		fmt.Fprintln(os.Stderr, "need -store")
		flag.Usage()
		os.Exit(2)
	}
	series, err := seriesFromStore(*storePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report(os.Stdout, dynamicity.Analyze(series, dynamicity.Config{MinAddresses: *minAddr, ChangePercent: *x, MinChangeDays: *y}))
}

// seriesFromStore counts the addresses holding a record per /24 at every
// snapshot of the history store at path. A snapshot holds at most one
// record per address, so each row counts one.
func seriesFromStore(path string) (*dataset.CountSeries, error) {
	st, err := histstore.Open(path, histstore.WithReadOnly())
	if err != nil {
		return nil, err
	}
	defer st.Close()
	series := dataset.NewCountSeries(st.Times())
	i := 0
	err = st.EachRow(context.Background(), func(r dataset.Row) error {
		for !series.Dates[i].Equal(r.Date) {
			i++ // rows arrive in date order
		}
		series.Add(r.IP.Slash24(), i, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// report writes the prefix tallies and one prefix,max_daily,change_days
// row per dynamic /24.
func report(w io.Writer, res *dynamicity.Result) {
	fmt.Fprintf(w, "/24s with PTRs: %d; considered: %d; dynamic: %d\n",
		res.TotalPrefixes, res.ConsideredPrefixes, len(res.DynamicPrefixes))
	fmt.Fprintln(w, "prefix,max_daily,change_days")
	for _, p := range res.DynamicPrefixes {
		v := res.Verdicts[p]
		fmt.Fprintf(w, "%s,%d,%d\n", p, v.MaxDaily, v.ChangeDays)
	}
}
