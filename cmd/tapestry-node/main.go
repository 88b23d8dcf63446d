// Command tapestry-node runs one Tapestry overlay node as a standalone
// process: a TCP daemon speaking the wire cluster protocol (internal/wire)
// on the framed-TCP stack the core mesh's TCP transport uses.
// It starts empty; a harness — normally examples/cluster — provisions its
// routing table and endpoint book with ClusterInstall and then drives
// publish/locate traffic that the daemons forward among themselves.
//
// The daemon prints exactly one line, "LISTEN <host:port>", once the
// listener is up, so a parent process can scrape the bound address (the
// default binds an ephemeral port). When -listen names a fixed port that is
// already taken, the daemon walks forward over a small range of consecutive
// ports before giving up — fleets booted from a base port survive stray
// occupants of individual ports, and the banner reports whichever port won.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"

	"tapestry/internal/procnode"
	"tapestry/internal/wire"
)

// listenRetry binds addr; for a fixed (non-zero) port it tries up to
// retries+1 consecutive ports starting at the requested one.
func listenRetry(addr string, retries int) (net.Listener, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("listen address %q: %v", addr, err)
	}
	if port == 0 || retries < 0 {
		retries = 0
	}
	var ln net.Listener
	for p := port; p <= port+retries; p++ {
		if ln, err = net.Listen("tcp", net.JoinHostPort(host, strconv.Itoa(p))); err == nil {
			return ln, nil
		}
	}
	return nil, err
}

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "host:port to listen on (port 0 picks a free port)")
	retries := flag.Int("listen-retries", 16, "extra consecutive ports to try when a fixed -listen port is busy")
	flag.Parse()
	ln, err := listenRetry(*listen, *retries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapestry-node:", err)
		os.Exit(1)
	}
	fmt.Printf("LISTEN %s\n", ln.Addr())
	srv := wire.Server{Host: procnode.New()}
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "tapestry-node:", err)
		os.Exit(1)
	}
}
