// Command simnet boots a small leaking network on the local machine: a
// DHCP server whose clients join and leave on accelerated schedules, an
// IPAM updater publishing their Host Names into reverse DNS, and an
// authoritative name server answering on a real UDP socket.
//
// While it runs, any DNS client can watch the privacy leak live:
//
//	simnet -listen 127.0.0.1:5353 -allow-axfr &
//	rdnsscan -server 127.0.0.1:5353 -prefix 10.0.0.0/24 -only-found
//	dig -p 5353 @127.0.0.1 -x 10.0.0.17
//	rdnsscan -server 127.0.0.1:5353 -axfr 0.0.10.in-addr.arpa   # the whole zone in one query
//
// Clients cycle every -period (default 40s) with -lease (default 1m)
// leases, so records appear and linger exactly as in the paper, just on a
// faster clock.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"rdnsprivacy/internal/dhcp"
	"rdnsprivacy/internal/dhcpwire"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/simclock"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it parses args, runs the network until ctx ends, and
// returns the exit status. The clients write their join and leave lines to
// stdout from their own goroutines.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:5353", "UDP address for the DNS server; TCP listens on the same port")
	prefixStr := fs.String("prefix", "10.0.0.0/24", "simulated client /24")
	suffix := fs.String("suffix", "dyn.campus-a.edu", "hostname suffix for published records")
	period := fs.Duration("period", 40*time.Second, "mean client session length")
	lease := fs.Duration("lease", time.Minute, "DHCP lease time")
	clients := fs.Int("clients", 12, "number of simulated client devices")
	policy := fs.String("policy", "carry-over", "IPAM policy: carry-over, hashed, none")
	seed := fs.Int64("seed", 1, "simulation seed")
	allowAXFR := fs.Bool("allow-axfr", false, "serve AXFR zone transfers (the classic misconfiguration)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	prefix, err := dnswire.ParsePrefix(*prefixStr)
	if err != nil || prefix.Bits != 24 {
		fmt.Fprintln(stderr, "prefix must be a /24")
		return 2
	}
	suffixName, err := dnswire.ParseName(*suffix)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *period < time.Millisecond {
		fmt.Fprintln(stderr, "-period must be at least 1ms")
		return 2
	}
	pol, ok := map[string]ipam.Policy{"carry-over": ipam.PolicyCarryOver, "hashed": ipam.PolicyHashed, "none": ipam.PolicyNone}[*policy]
	if !ok {
		fmt.Fprintln(stderr, "unknown policy", *policy)
		return 2
	}

	// Operator side: zone, updater, DHCP server — on the real clock.
	origin, err := dnswire.ReverseZoneFor24(prefix)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ns, _ := suffixName.Prepend("ns1")
	mbox, _ := suffixName.Prepend("hostmaster")
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin: origin, PrimaryNS: ns, Mbox: mbox,
	})
	srv := dnsserver.NewServer()
	srv.AddZone(zone)
	srv.SetTransferPolicy(*allowAXFR)
	updater := ipam.NewUpdater(ipam.Config{Policy: pol, Suffix: suffixName})
	if err := updater.AttachZone(zone); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	clock := simclock.Real{}
	dhcpSrv := dhcp.NewServer(clock, dhcp.ServerConfig{
		ServerIP:  prefix.Nth(1),
		Pools:     []dnswire.Prefix{prefix},
		LeaseTime: *lease,
		Sink:      updater,
	})

	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ln, err := net.Listen("tcp", conn.LocalAddr().String())
	if err != nil {
		fmt.Fprintln(stderr, err)
		conn.Close()
		return 1
	}

	// From here on everything ends with ctx, or when Serve fails.
	ctx, cancel := context.WithCancel(ctx)
	context.AfterFunc(ctx, func() {
		conn.Close()
		ln.Close()
	})
	var wg sync.WaitGroup

	// Client side: devices joining and leaving.
	rng := rand.New(rand.NewSource(*seed))
	owners := []string{"brian", "emma", "jacob", "olivia", "noah", "mia",
		"liam", "sophia", "lucas", "ava", "ethan", "emily"}
	kinds := []netsim.DeviceKind{
		netsim.KindIPhone, netsim.KindIPad, netsim.KindMacBookAir,
		netsim.KindMacBookPro, netsim.KindGalaxyPhone, netsim.KindGalaxyNote,
		netsim.KindDellLaptop, netsim.KindWindowsDesktop,
	}
	for i := 0; i < *clients; i++ {
		owner := owners[i%len(owners)]
		kind := kinds[rng.Intn(len(kinds))]
		host := netsim.HostNameFor(kind, owner, rng)
		mac := dhcpwire.HardwareAddr{2, 0, 0, 0, 0, byte(i + 1)}
		release := i%3 != 0 // a third of the devices leave silently
		clientSeed := rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClient(ctx, stdout, clock, dhcpSrv, host, mac, release, *period, clientSeed)
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.ServeTCP(ln)
	}()
	if *allowAXFR {
		fmt.Fprintf(stdout, "simnet: AXFR transfers OPEN on %s (try rdnsscan -axfr)\n", ln.Addr())
	}
	fmt.Fprintf(stdout, "simnet: authoritative DNS for %s on %s\n", origin, conn.LocalAddr())
	fmt.Fprintf(stdout, "simnet: %d clients cycling in %s, policy %s, lease %s\n",
		*clients, prefix, pol, *lease)
	fmt.Fprintf(stdout, "simnet: try  dig -p %d @127.0.0.1 -x %s\n",
		conn.LocalAddr().(*net.UDPAddr).Port, prefix.Nth(10))

	err = srv.Serve(conn)
	failed := ctx.Err() == nil
	cancel()
	wg.Wait()
	if failed {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runClient cycles one device until ctx ends: join, stay a while, leave,
// pause, repeat. A device still on the network at the end leaves quietly.
func runClient(ctx context.Context, out io.Writer, clock simclock.Clock, srv *dhcp.Server, host string,
	mac dhcpwire.HardwareAddr, release bool, period time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	client := dhcp.NewClient(clock, srv, dhcp.ClientConfig{
		CHAddr: mac, HostName: host, SendRelease: release,
	})
	defer client.Leave()
	for {
		ip, err := client.Join()
		if err == nil {
			fmt.Fprintf(out, "%s  join   %-16s %s\n",
				time.Now().Format("15:04:05"), ip, host)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(period/2 + time.Duration(rng.Int63n(int64(period)))):
		}
		if err == nil {
			mode := "release"
			if !release {
				mode = "silent (record lingers until lease expiry)"
			}
			client.Leave()
			fmt.Fprintf(out, "%s  leave  %-16s %s  [%s]\n",
				time.Now().Format("15:04:05"), ip, host, mode)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(period/4 + time.Duration(rng.Int63n(int64(period/2)))):
		}
	}
}
