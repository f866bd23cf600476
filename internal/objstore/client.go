package objstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// ErrNotFound is returned for missing objects.
var ErrNotFound = errors.New("objstore: object not found")

// Client talks to an object-store server over HTTP. Its transport can be
// routed through a netsim.Link dialer so all traffic is bandwidth-shaped.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the server at addr (host:port). If
// dialFn is non-nil all connections are made through it — pass a
// netsim.Link's Dial to emulate the testbed's 1 GbE link.
func NewClient(addr string, dialFn func(network, addr string) (net.Conn, error)) *Client {
	transport := &http.Transport{
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 16,
	}
	if dialFn != nil {
		transport.DialContext = func(_ context.Context, network, a string) (net.Conn, error) {
			return dialFn(network, a)
		}
	}
	return &Client{
		base: "http://" + addr,
		http: &http.Client{Transport: transport},
	}
}

func (c *Client) objectURL(bucket, key string) string {
	return c.base + "/" + url.PathEscape(bucket) + "/" + escapeKey(key)
}

// escapeKey escapes each key segment but keeps the slashes.
func escapeKey(key string) string {
	out := ""
	for i, seg := range bytes.Split([]byte(key), []byte("/")) {
		if i > 0 {
			out += "/"
		}
		out += url.PathEscape(string(seg))
	}
	return out
}

func classify(resp *http.Response) error {
	if resp.StatusCode == http.StatusNotFound {
		return ErrNotFound
	}
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("objstore: http %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// fill reads exactly len(p) bytes of body. One that ends early is a
// truncated object: io.ErrUnexpectedEOF, however little of it arrived.
func fill(body io.Reader, p []byte) (int, error) {
	n, err := io.ReadFull(body, p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// Put stores data under bucket/key.
func (c *Client) Put(bucket, key string, data []byte) error {
	return c.PutFrom(bucket, key, bytes.NewReader(data), int64(len(data)))
}

// PutFrom streams size bytes from r into bucket/key.
func (c *Client) PutFrom(bucket, key string, r io.Reader, size int64) error {
	req, err := http.NewRequest(http.MethodPut, c.objectURL(bucket, key), r)
	if err != nil {
		return err
	}
	req.ContentLength = size
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	return classify(resp)
}

// Get fetches the whole object.
func (c *Client) Get(bucket, key string) ([]byte, error) {
	resp, err := c.http.Get(c.objectURL(bucket, key))
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if err := classify(resp); err != nil {
		return nil, err
	}
	if resp.ContentLength < 0 {
		return nil, fmt.Errorf("objstore: GET %s/%s: reply has no Content-Length", bucket, key)
	}
	data := make([]byte, resp.ContentLength)
	if _, err := fill(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// ReadRange is the one ranged read: it fills p with the len(p) bytes at
// offset off straight from the response body and returns how many arrived;
// an object that ends before p is full is io.ErrUnexpectedEOF.
func (c *Client) ReadRange(bucket, key string, p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	req, err := http.NewRequest(http.MethodGet, c.objectURL(bucket, key), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+int64(len(p))-1))
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	if err := classify(resp); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusPartialContent {
		return 0, fmt.Errorf("objstore: server ignored range request (status %d)",
			resp.StatusCode)
	}
	return fill(resp.Body, p)
}

// GetRange fetches n bytes at offset off into a buffer of exactly n.
func (c *Client) GetRange(bucket, key string, off, n int64) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	data := make([]byte, n)
	if _, err := c.ReadRange(bucket, key, data, off); err != nil {
		return nil, err
	}
	return data, nil
}

// Stat returns the object's size and its version stamp: the store's
// modification time for it, which a PUT that replaces the object always
// moves forward. A store too old to send the stamp yields the zero time.
func (c *Client) Stat(bucket, key string) (size int64, mtime time.Time, err error) {
	resp, err := c.http.Head(c.objectURL(bucket, key))
	if err != nil {
		return 0, time.Time{}, err
	}
	defer drain(resp)
	if err := classify(resp); err != nil {
		return 0, time.Time{}, err
	}
	if resp.ContentLength < 0 {
		return 0, time.Time{}, fmt.Errorf("objstore: HEAD %s/%s: reply has no Content-Length", bucket, key)
	}
	if v := resp.Header.Get(mtimeHeader); v != "" {
		ns, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, time.Time{}, fmt.Errorf("objstore: HEAD %s/%s: bad %s: %w", bucket, key, mtimeHeader, err)
		}
		mtime = time.Unix(0, ns)
	}
	return resp.ContentLength, mtime, nil
}

// List returns objects in the bucket with the given key prefix, sorted.
func (c *Client) List(bucket, prefix string) ([]ObjectInfo, error) {
	u := c.base + "/" + url.PathEscape(bucket) + "?list=1&prefix=" + url.QueryEscape(prefix)
	resp, err := c.http.Get(u)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if err := classify(resp); err != nil {
		return nil, err
	}
	var out []ObjectInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("objstore: parsing listing: %w", err)
	}
	return out, nil
}

// Delete removes an object.
func (c *Client) Delete(bucket, key string) error {
	req, err := http.NewRequest(http.MethodDelete, c.objectURL(bucket, key), nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	return classify(resp)
}

// drain consumes and closes the body so connections are reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
