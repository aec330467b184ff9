package stzd

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"
)

// StartTest starts an in-process stzd instance over httptest and returns
// the running server. It is the one construction path shared by the stzd
// test suite and by out-of-package consumers that need a live service
// without a network deployment — most prominently the HTTP workload of
// cmd/stzsuite, whose end-to-end cells must measure exactly the handler
// stack the real daemon serves. The caller owns the returned server and
// must Close it.
func StartTest(o Options) *httptest.Server {
	return httptest.NewServer(New(o))
}

// TestCluster is a running in-process stzd cluster: n nodes on localhost
// listeners, each built with the full static peer topology, forwarding
// to each other over real HTTP. It backs the cluster tests and the
// suite driver's cluster workload.
type TestCluster struct {
	// Servers are the running nodes, index-aligned with Addrs.
	Servers []*httptest.Server
	// Addrs are the host:port peer addresses (the -peers list every node
	// was built with).
	Addrs []string
	// Nodes are the handlers behind Servers, for direct state inspection.
	Nodes []*Server

	// opts remembers each node's final options so Restart can rebuild it.
	opts []Options
}

// StartTestCluster starts an n-node cluster. Every node shares o except
// for Self/Peers, which are derived from the freshly bound listeners.
// The caller owns the cluster and must Close it.
func StartTestCluster(n int, o Options) *TestCluster {
	return StartTestClusterOpts(n, o, nil)
}

// StartTestClusterOpts starts an n-node cluster like StartTestCluster,
// additionally calling tweak (when non-nil) on each node's options
// after Self/Peers are filled in but before the node is built. The
// bound peer addresses are passed along so per-node behavior — most
// prominently a fault-injecting WrapTransport targeting a specific peer
// — can be configured against real listener addresses.
func StartTestClusterOpts(n int, o Options, tweak func(i int, addrs []string, node *Options)) *TestCluster {
	c := &TestCluster{}
	// Bind all listeners first: every node needs the full address list
	// before its handler is constructed.
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(nil)
		c.Servers = append(c.Servers, ts)
		c.Addrs = append(c.Addrs, ts.Listener.Addr().String())
	}
	for i, ts := range c.Servers {
		no := o
		no.Self = c.Addrs[i]
		no.Peers = append([]string(nil), c.Addrs...)
		if tweak != nil {
			tweak(i, c.Addrs, &no)
		}
		node := New(no)
		c.Nodes = append(c.Nodes, node)
		c.opts = append(c.opts, no)
		ts.Config.Handler = node
		ts.Start()
	}
	return c
}

// Stop shuts node i down — listener closed, background healing stopped
// — while the rest of the cluster keeps running against its (now dead)
// address. The node's slot in the topology is preserved so Restart can
// bring it back.
func (c *TestCluster) Stop(i int) {
	c.Nodes[i].Close()
	c.Servers[i].Close()
}

// Restart brings a stopped node back on its original address with a
// fresh server built from its original options. The store starts empty
// — exactly a process restart of a node with an in-memory store, the
// state the self-healing tier (hint replay, read repair, anti-entropy)
// must re-converge.
func (c *TestCluster) Restart(i int) error {
	var l net.Listener
	var err error
	// The old listener's port can linger briefly after Close; retry the
	// bind rather than racing it.
	for attempt := 0; attempt < 100; attempt++ {
		l, err = net.Listen("tcp", c.Addrs[i])
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("rebinding %s: %w", c.Addrs[i], err)
	}
	node := New(c.opts[i])
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: node}}
	ts.Start()
	c.Nodes[i] = node
	c.Servers[i] = ts
	return nil
}

// URL returns node i's base URL.
func (c *TestCluster) URL(i int) string { return c.Servers[i].URL }

// Owner returns the index of the node that owns archive id (its primary).
func (c *TestCluster) Owner(id string) int { return c.Owners(id)[0] }

// Owners returns the indices of the nodes in archive id's replica set,
// primary first.
func (c *TestCluster) Owners(id string) []int {
	n := c.Nodes[0]
	var out []int
	for _, a := range n.ring.Owners(id, n.opts.Replicas) {
		out = append(out, indexOf(c.Addrs, a))
	}
	return out
}

// Close shuts every node down, background healing included. Safe after
// Stop: both layers tolerate a second Close.
func (c *TestCluster) Close() {
	for i, ts := range c.Servers {
		c.Nodes[i].Close()
		ts.Close()
	}
}
