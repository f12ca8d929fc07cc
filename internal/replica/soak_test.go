package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/testutil"
)

// replicaStack is one in-process replica daemon: a syncer, a serving
// Server whose Reopen reopens the synced directory, and the catch-up
// loop cmd/rdnsd runs (sync, then reload when the generation advanced —
// strictly sequential, so a reload never reads a tail mid-append).
type replicaStack struct {
	dir string
	srv *rdnsserve.Server
	y   *Syncer
}

func newReplicaStack(tb testing.TB, dir string, client *rdnsclient.Client) *replicaStack {
	tb.Helper()
	y, err := New(Config{Source: "http://primary.inproc", Dir: dir, Client: client, Chunk: 2048})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := y.Sync(context.Background()); err != nil {
		tb.Fatalf("initial sync: %v", err)
	}
	st, err := y.Open(histstore.WithCache(128))
	if err != nil {
		tb.Fatalf("open replica: %v", err)
	}
	srv := rdnsserve.New(st, rdnsserve.Config{
		Seed:   7,
		Reopen: func() (*histstore.Store, error) { return y.Open(histstore.WithCache(128)) },
	})
	srv.SetReplicaStatus(y.Status)
	return &replicaStack{dir: dir, srv: srv, y: y}
}

// catchUp runs one sync-and-swap step, reporting a hard (non-transient)
// error. A compaction race mid-pull is transient: Sync already retried
// it and the next tick will converge.
func (rs *replicaStack) catchUp(ctx context.Context) error {
	changed, err := rs.y.Sync(ctx)
	if err != nil {
		if errors.Is(err, errChanged) || rdnsChanged(err) || errors.Is(err, context.Canceled) {
			return nil
		}
		return err
	}
	if changed {
		if _, err := rs.srv.Reload(); err != nil {
			return err
		}
	}
	return nil
}

// queryWorker issues mixed queries against a server's handler until
// stop closes, failing the run on any response error. 404s on the
// at endpoint are impossible here: every probed address and day comes
// from the server's own /v1/days and the seeded layout.
func queryWorker(stop <-chan struct{}, h http.Handler, seed int64, fail func(error)) {
	c := rdnsclient.New("http://rdnsd.inproc",
		rdnsclient.WithHTTPClient(&http.Client{Transport: inprocTransport{h}}),
		rdnsclient.WithAPIKey(fmt.Sprintf("soak-%d", seed)))
	ctx := context.Background()
	state := uint64(seed)*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return z ^ (z >> 27)
	}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		dr, err := c.Days(ctx)
		if err != nil {
			fail(fmt.Errorf("days: %w", err))
			return
		}
		if len(dr.Days) == 0 {
			fail(errors.New("served an empty history"))
			return
		}
		day := dr.Days[int(next()%uint64(len(dr.Days)))]
		ip := dnswire.IPv4{10, 0, byte(1 + next()%2), byte(10 + next()%4)}
		if _, err := c.At(ctx, ip.String(), day); err != nil {
			fail(fmt.Errorf("at %s@%v: %w", ip, day, err))
			return
		}
		if i%8 == 0 {
			p := dnswire.Prefix{Addr: dnswire.IPv4{10, 0, byte(1 + next()%2), 0}, Bits: 24}
			if _, err := c.Churn(ctx, p.String(), dr.Days[0], day); err != nil {
				fail(fmt.Errorf("churn %s: %w", p, err))
				return
			}
		}
		if i%16 == 0 {
			if _, err := c.Stats(ctx); err != nil {
				fail(fmt.Errorf("stats: %w", err))
				return
			}
		}
	}
}

// TestReplicaSoakRace is the -race soak the tentpole demands: a live
// appender and periodic compactions on the primary, a replica
// continuously catching up and hot-swapping generations, and query
// workers hammering both ends — with zero query errors and no leaked
// goroutines.
func TestReplicaSoakRace(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const blocks = 2
	dir := t.TempDir()
	primary := seedPrimary(t, filepath.Join(dir, "primary"), 8, blocks)
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()

	rs := newReplicaStack(t, filepath.Join(dir, "replica"), feedClient(inprocTransport{srv.Handler()}))
	defer rs.srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, &err)
	}

	// Live appender: one day every 2ms.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for day := 8; ; day++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := primary.Append(campaignStart.AddDate(0, 0, day), dayRecords(day, blocks)); err != nil {
				fail(fmt.Errorf("append: %w", err))
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Live compactor: seal the tail whenever it holds a base interval.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(40 * time.Millisecond):
			}
			if _, err := primary.Compact(context.Background(), histstore.CompactOptions{}); err != nil &&
				!errors.Is(err, histstore.ErrCompactBusy) {
				fail(fmt.Errorf("compact: %w", err))
				return
			}
		}
	}()

	// Replica catch-up loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if err := rs.catchUp(context.Background()); err != nil {
				fail(fmt.Errorf("catch-up: %w", err))
				return
			}
		}
	}()

	// Query workers on both ends.
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func(w int) { defer wg.Done(); queryWorker(stop, srv.Handler(), int64(w), fail) }(w)
		go func(w int) { defer wg.Done(); queryWorker(stop, rs.srv.Handler(), int64(16+w), fail) }(w)
	}

	time.Sleep(1200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		t.Fatalf("soak failed: %v", *p)
	}
	if rs.srv.StatsSnapshot().Generation == 0 {
		t.Fatal("replica never swapped a generation during the soak")
	}

	// Converge and prove bit-identical equality at the final generation.
	if _, err := rs.y.Sync(context.Background()); err != nil {
		t.Fatalf("final sync: %v", err)
	}
	rep := openReplica(t, rs.y)
	compareStores(t, primary, rep, blocks)
	rep.Close()
}

// TestReplicaChaosConvergence runs one primary and two replicas while a
// chaos schedule kills replica pulls mid-flight (canceled contexts, then
// a fresh Syncer — a restarted process) and the primary keeps appending
// and compacting. Queries against both replica servers must never error,
// and both replicas must converge to bit-identical state once the chaos
// stops. This is the library half of `make replicatest`; the script
// half drives real rdnsd processes over TCP.
func TestReplicaChaosConvergence(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const blocks = 2
	dir := t.TempDir()
	primary := seedPrimary(t, filepath.Join(dir, "primary"), 10, blocks)
	srv := rdnsserve.New(primary, rdnsserve.Config{Seed: 1})
	defer srv.Close()
	feed := func() *rdnsclient.Client { return feedClient(inprocTransport{srv.Handler()}) }

	stacks := []*replicaStack{
		newReplicaStack(t, filepath.Join(dir, "replica-a"), feed()),
		newReplicaStack(t, filepath.Join(dir, "replica-b"), feed()),
	}
	defer stacks[0].srv.Close()
	defer stacks[1].srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	fail := func(err error) { firstErr.CompareAndSwap(nil, &err) }

	// Primary churn: appends with interleaved compactions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for day := 10; ; day++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := primary.Append(campaignStart.AddDate(0, 0, day), dayRecords(day, blocks)); err != nil {
				fail(fmt.Errorf("append: %w", err))
				return
			}
			if day%6 == 0 {
				if _, err := primary.Compact(context.Background(), histstore.CompactOptions{}); err != nil &&
					!errors.Is(err, histstore.ErrCompactBusy) {
					fail(fmt.Errorf("compact: %w", err))
					return
				}
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	// Per-replica chaos loop: every third sync is "killed" mid-pull by an
	// already-expiring context, after which the syncer is replaced by a
	// fresh one on the same directory — a crashed-and-restarted process.
	for i, rs := range stacks {
		wg.Add(1)
		go func(i int, rs *replicaStack) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				case <-time.After(5 * time.Millisecond):
				}
				if n%3 == 2 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
					rs.y.Sync(ctx) // killed mid-pull: error expected and discarded
					cancel()
					y, err := New(Config{Source: "http://primary.inproc", Dir: rs.dir,
						Client: feedClient(inprocTransport{srv.Handler()}), Chunk: 2048})
					if err != nil {
						fail(fmt.Errorf("replica %d restart: %w", i, err))
						return
					}
					rs.y = y
					rs.srv.SetReplicaStatus(y.Status)
					continue
				}
				if err := rs.catchUp(context.Background()); err != nil {
					fail(fmt.Errorf("replica %d catch-up: %w", i, err))
					return
				}
			}
		}(i, rs)
	}

	// Queries on both replicas throughout the chaos: zero errors allowed.
	for i, rs := range stacks {
		wg.Add(1)
		go func(i int, h http.Handler) { defer wg.Done(); queryWorker(stop, h, int64(32+i), fail) }(i, rs.srv.Handler())
	}

	time.Sleep(1200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		t.Fatalf("chaos run failed: %v", *p)
	}

	// Chaos over: both replicas converge to the primary, bit-identically.
	for i, rs := range stacks {
		if _, err := rs.y.Sync(context.Background()); err != nil {
			t.Fatalf("replica %d final sync: %v", i, err)
		}
		rep := openReplica(t, rs.y)
		compareStores(t, primary, rep, blocks)
		rep.Close()
		if rs.srv.StatsSnapshot().Generation == 0 {
			t.Fatalf("replica %d never swapped a generation", i)
		}
	}
}
