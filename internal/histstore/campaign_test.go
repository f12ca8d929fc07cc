package histstore_test

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scan"
)

// campaignUniverse is a small study universe: a campaign's daily sweep of
// its dynamic networks is a few hundred live /24s.
func campaignUniverse(t *testing.T) *netsim.Universe {
	t.Helper()
	u, err := netsim.BuildStudyUniverse(netsim.UniverseConfig{
		Seed:                  42,
		FillerSlash24s:        900,
		LeakyNetworks:         15,
		NonLeakyDynamic:       4,
		PeoplePerDynamicBlock: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// runCampaign sweeps days days from start into st through scan.Run,
// compacting every 10.
func runCampaign(t *testing.T, u *netsim.Universe, st *histstore.Store, start time.Time, days int) {
	t.Helper()
	res := scan.Run(scan.Campaign{
		Universe:     u,
		Start:        start,
		End:          start.AddDate(0, 0, days-1),
		Cadence:      scan.Daily,
		SkipFiller:   true,
		Store:        st,
		CompactEvery: 10,
	})
	if res.StoreErr != nil {
		t.Fatal(res.StoreErr)
	}
}

// TestCampaignIngestReconstructsNothing holds a campaign's store side to
// what it already holds: a campaign that appends and compacts, and asks
// nothing, must never rebuild a block state from frames. Every compaction
// after the first starts from the state the segment before it ends in,
// which the store keeps; rebuilding it block by block costs a campaign
// day more than anything else the store does.
func TestCampaignIngestReconstructsNothing(t *testing.T) {
	u := campaignUniverse(t)
	start := time.Date(2021, time.March, 1, 0, 0, 0, 0, time.UTC)

	t.Run("one writer", func(t *testing.T) {
		st, err := histstore.Open(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		runCampaign(t, u, st, start, 40)
		s := st.Stats()
		if s.Segments != 4 || s.Compaction.Runs != 4 {
			t.Fatalf("40 days at CompactEvery 10: %d segments from %d compactions, want 4 and 4", s.Segments, s.Compaction.Runs)
		}
		if s.Reconstructions != 0 {
			t.Fatalf("the campaign reconstructed %d block states; want 0", s.Reconstructions)
		}
	})

	t.Run("two writers", func(t *testing.T) {
		// Two vantages, each in a store of its own, each reopened halfway:
		// the reopened writer's compactions start from held states — the
		// sealed end Open adopted, then each seal's own.
		for i, id := range []string{"alpha", "bravo"} {
			dir := filepath.Join(t.TempDir(), id)
			st, err := histstore.Open(dir, histstore.WithWriter(id))
			if err != nil {
				t.Fatal(err)
			}
			from := start.AddDate(0, 0, 25*i)
			runCampaign(t, u, st, from, 25) // two segments and a 5-day tail
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = histstore.Open(dir); err != nil {
				t.Fatal(err)
			}
			runCampaign(t, u, st, from.AddDate(0, 0, 25), 25)
			res, err := st.Compact(context.Background(), histstore.CompactOptions{MinSeal: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Writer != id || res.Sealed != 5 {
				t.Fatalf("%s: sealed %d snapshots of writer %s (%s), want 5 of %s", id, res.Sealed, res.Writer, res.Skipped, id)
			}
			s := st.Stats()
			st.Close()
			if s.Segments != 5 {
				t.Fatalf("%s: %d segments, want 5", id, s.Segments)
			}
			if s.Reconstructions != 0 {
				t.Fatalf("%s: the campaign reconstructed %d block states; want 0", id, s.Reconstructions)
			}
		}
	})
}
