package container

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"mathcloud/internal/core"
	"mathcloud/internal/rest"
)

// Cross-replica file fetch (DESIGN.md §5j).  In a federation, gateway
// placement may hand a job to a replica other than the one holding its
// input files: the file reference then carries a foreign affinity prefix
// ("r01-<hex>" staged on r02).  The gateway places a job on the replica
// owning its inputs when it can; when it cannot (inputs spread over several
// replicas, a saturated owner, a direct submission), the consuming replica
// pulls the blob once over the content-addressed file plane instead of
// bouncing the bytes through the client — GET /files/{id} via its own base
// URL, which in a federated deployment points at the gateway tier and
// therefore affinity-routes to the owner — verifies it against the
// advertised digest, and registers the foreign ID locally.  Subsequent
// consumers (the rest of a sweep, a workflow's later blocks) hit the local
// CAS.  The local copy belongs to the job (or sweep) that pulled it and
// goes with it; a later consumer pulls again.

// fetchFlight is one in-progress pull of a foreign file ID.  Concurrent
// consumers wait on it instead of starting duplicate transfers.
type fetchFlight struct {
	done chan struct{}
	err  error
}

// ensureLocalFile makes a file ID stageable from the local store,
// pulling the blob from its home replica when the ID carries a foreign
// affinity prefix.  IDs minted locally (or bare, pre-federation) return
// immediately; a missing local ID then surfaces as not-found from the
// staging call, exactly as before.  owner is the job or sweep the pulled
// copy is released with.
func (c *Container) ensureLocalFile(ctx context.Context, id, owner string) error {
	if _, err := c.files.Digest(id); err == nil {
		return nil
	}
	prefix, ok := core.SplitReplicaID(id)
	if !ok || prefix == c.replicaID {
		return nil
	}
	base := c.BaseURL()
	if base == "" {
		return nil
	}
	c.fetchMu.Lock()
	if c.fetches == nil {
		c.fetches = make(map[string]*fetchFlight)
	}
	if f, ok := c.fetches[id]; ok {
		c.fetchMu.Unlock()
		select {
		case <-f.done:
			return f.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	f := &fetchFlight{done: make(chan struct{})}
	c.fetches[id] = f
	c.fetchMu.Unlock()

	f.err = c.fetchRemoteFile(ctx, base, id, owner)
	c.fetchMu.Lock()
	delete(c.fetches, id)
	c.fetchMu.Unlock()
	close(f.done)
	return f.err
}

// fetchRemoteFile performs one blob transfer: GET the file through the
// federation route, verify it against the digest the peer advertises,
// and register it in the local content-addressed store under the same
// federation ID, owned by owner.
func (c *Container) fetchRemoteFile(ctx context.Context, base, id, owner string) error {
	uri := base + "/files/" + id
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, uri, nil)
	if err != nil {
		return fmt.Errorf("container: fetch remote file %s: %w", id, err)
	}
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return fmt.Errorf("container: fetch remote file %s: %w", id, err)
	}
	defer func() {
		rest.Drain(resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("container: fetch remote file %s: peer returned %d", id, resp.StatusCode)
	}
	digest := resp.Header.Get(DigestHeader)
	if digest == "" {
		return fmt.Errorf("container: fetch remote file %s: peer did not advertise a content digest", id)
	}
	// The +1 exposes an over-limit transfer as a digest mismatch instead
	// of silently registering a truncated blob.
	if err := c.files.IngestRemote(id, digest, io.LimitReader(resp.Body, maxFileBytes+1), owner); err != nil {
		return err
	}
	metRemoteFetches.Inc()
	if size, err := c.files.Size(id); err == nil {
		metRemoteFetchBytes.Add(float64(size))
	}
	c.logger.Printf("container: pulled remote file %s from %s", id, uri)
	return nil
}
