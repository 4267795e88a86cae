package workload

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/wire"
)

// DialFrame connects a frame client to a framesrv address (wire.Dial).
func DialFrame(addr string) (*wire.Client, error) { return wire.Dial(addr) }

// HTTPClient is a closed-loop serving client that drives the dkserver
// read path over real HTTP connections — the end-to-end counterpart of
// the in-process ClientOp streams. One client is one logical caller:
// it issues the next request as soon as the previous response is fully
// drained, reusing its keep-alive connection and a private read buffer,
// so the measured cost is the server's, not the harness's. Responses
// are drained, not decoded: parsing on the client would charge the same
// tax to every representation and mask the server-side encode cost the
// wire-path benchmarks exist to compare.
//
// Not safe for concurrent use; give each goroutine its own client.
type HTTPClient struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// Client is the underlying HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Binary requests wire frames (Accept: application/x-dkclique-frame)
	// instead of JSON on every read.
	Binary bool
	// Tenant, when non-empty, targets the named tenant of a multi-tenant
	// server: every path is prefixed with /t/{tenant}. Empty hits the
	// root-level routes (the server's default tenant).
	Tenant string

	buf  []byte // response drain scratch
	path []byte // request path scratch
	body []byte // update body scratch
}

// root returns the URL prefix every request starts from: Base, plus the
// tenant route prefix when one is targeted.
func (c *HTTPClient) root() string {
	if c.Tenant == "" {
		return c.Base
	}
	return c.Base + "/t/" + c.Tenant
}

func (c *HTTPClient) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// Snapshot fetches the point-in-time result set and reports the body
// size; full=false asks for the lean ?cliques=0 variant.
func (c *HTTPClient) Snapshot(full bool) (int, error) {
	if full {
		return c.get("/snapshot")
	}
	return c.get("/snapshot?cliques=0")
}

// CliqueOf fetches the point lookup for one node.
func (c *HTTPClient) CliqueOf(node int32) (int, error) {
	c.path = append(c.path[:0], "/clique/"...)
	c.path = strconv.AppendInt(c.path, int64(node), 10)
	return c.get(string(c.path))
}

// Cliques fetches the batched lookup for nodes against one snapshot.
func (c *HTTPClient) Cliques(nodes []int32) (int, error) {
	c.path = append(c.path[:0], "/cliques?nodes="...)
	for i, u := range nodes {
		if i > 0 {
			c.path = append(c.path, ',')
		}
		c.path = strconv.AppendInt(c.path, int64(u), 10)
	}
	return c.get(string(c.path))
}

// Update posts a batch of edge updates; with flush it blocks until the
// batch is applied and published.
func (c *HTTPClient) Update(ops []Op, flush bool) error {
	b := append(c.body[:0], `{"ops":[`...)
	for i, op := range ops {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"insert":`...)
		b = strconv.AppendBool(b, op.Insert)
		b = append(b, `,"u":`...)
		b = strconv.AppendInt(b, int64(op.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(op.V), 10)
		b = append(b, '}')
	}
	b = append(b, `],"flush":`...)
	b = strconv.AppendBool(b, flush)
	b = append(b, '}')
	c.body = b
	resp, err := c.client().Post(c.root()+"/update", "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	if _, err := c.drain(resp); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /update: status %d", resp.StatusCode)
	}
	return nil
}

// ReplayStats summarises one Replay run.
type ReplayStats struct {
	Reads, Writes, Batches int
	// Bytes counts response body bytes drained across all reads.
	Bytes int
}

// Replay drives one closed-loop ClientOp stream over HTTP: reads become
// point lookups, writes accumulate into /update batches of writeBatch
// ops (<=0 means 64). The final batch is posted with flush=true, so
// when Replay returns every write this client issued has been applied.
func (c *HTTPClient) Replay(ops []ClientOp, writeBatch int) (ReplayStats, error) {
	if writeBatch <= 0 {
		writeBatch = 64
	}
	var st ReplayStats
	pending := make([]Op, 0, writeBatch)
	flush := func(last bool) error {
		if len(pending) == 0 {
			return nil
		}
		if err := c.Update(pending, last); err != nil {
			return err
		}
		st.Writes += len(pending)
		st.Batches++
		pending = pending[:0]
		return nil
	}
	for _, op := range ops {
		if op.Read {
			n, err := c.CliqueOf(op.Node)
			if err != nil {
				return st, err
			}
			st.Reads++
			st.Bytes += n
			continue
		}
		pending = append(pending, op.Update)
		if len(pending) == writeBatch {
			if err := flush(false); err != nil {
				return st, err
			}
		}
	}
	return st, flush(true)
}

// get issues one GET and drains the response through the client's
// scratch buffer, returning the body size.
func (c *HTTPClient) get(path string) (int, error) {
	req, err := http.NewRequest(http.MethodGet, c.root()+path, nil)
	if err != nil {
		return 0, err
	}
	if c.Binary {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return 0, err
	}
	n, err := c.drain(resp)
	if err != nil {
		return n, err
	}
	if resp.StatusCode != http.StatusOK {
		return n, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return n, nil
}

// drain reads the body to EOF (required to reuse the keep-alive
// connection) without retaining it.
func (c *HTTPClient) drain(resp *http.Response) (int, error) {
	defer resp.Body.Close()
	if c.buf == nil {
		c.buf = make([]byte, 64<<10)
	}
	total := 0
	for {
		n, err := resp.Body.Read(c.buf)
		total += n
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}
