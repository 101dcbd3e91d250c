package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// opKind is one request type the generator issues.
type opKind int

const (
	opPut opKind = iota
	opGet
	opRangeGet
	opPatch
)

func (k opKind) String() string {
	return [...]string{"put", "get", "range_get", "patch"}[k]
}

// client is one closed-loop caller: it sends a request, verifies every
// byte of the reply, and only then sends the next. All callers of a stack
// share one keep-alive http.Transport capped at one connection each.
type client struct {
	http *http.Client
	base string
	rec  *recorder // nil when untraced
	buf  []byte    // body read buffer, reused across requests
}

func newTransport(clients int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
}

func newClient(t *http.Transport, base string, rec *recorder) *client {
	return &client{http: &http.Client{Transport: t}, base: base, rec: rec, buf: make([]byte, 256<<10)}
}

// do issues one op against obj and returns the payload bytes moved and
// verified. window is the tail length of a range GET; patchOff/patchData
// position a PATCH. A nil error means the store answered with the right
// status and exactly the right bytes.
func (c *client) do(op opKind, obj *object, window int64, patchOff int64, patchData []byte) (moved int64, err error) {
	url := c.base + "/o/" + obj.name
	start := time.Now()
	defer func() { c.rec.add(layerClient, op.String(), start, time.Now(), moved) }()

	var req *http.Request
	wantStatus := http.StatusOK
	switch op {
	case opPut:
		req, err = http.NewRequest(http.MethodPut, url, obj.reader())
		if err == nil {
			req.ContentLength = obj.size()
		}
		wantStatus = http.StatusCreated
	case opGet:
		req, err = http.NewRequest(http.MethodGet, url, nil)
	case opRangeGet:
		req, err = http.NewRequest(http.MethodGet, url, nil)
		if err == nil {
			req.Header.Set("Range", fmt.Sprintf("bytes=-%d", window))
		}
		wantStatus = http.StatusPartialContent
	case opPatch:
		req, err = http.NewRequest(http.MethodPatch, url, bytes.NewReader(patchData))
		if err == nil {
			req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/*", patchOff, patchOff+int64(len(patchData))-1))
		}
	}
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if op == opGet {
		c.rec.add(layerTTFB, op.String(), start, time.Now(), 0)
	}
	if resp.StatusCode != wantStatus {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // keep the connection reusable
		return 0, fmt.Errorf("%s %s: status %s, want %d", op, obj.name, resp.Status, wantStatus)
	}
	switch op {
	case opGet:
		if err := verifyBody(resp.Body, obj, 0, obj.size(), c.buf); err != nil {
			return 0, err
		}
		return obj.size(), nil
	case opRangeGet:
		n := min(window, obj.size())
		if err := verifyBody(resp.Body, obj, obj.size()-n, n, c.buf); err != nil {
			return 0, err
		}
		return n, nil
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if op == opPatch {
		return int64(len(patchData)), nil
	}
	return obj.size(), nil
}
