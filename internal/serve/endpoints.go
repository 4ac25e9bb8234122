package serve

import (
	"context"
	"fmt"
)

// endpointDef ties one POST API endpoint's URL path to its request parser
// and compute method. The table is the single source of truth for what the
// service exposes: New registers handlers from it, and RequestKey derives
// cache keys from the same parsers, so a key computed outside the server
// is exactly the one its handler caches under.
type endpointDef struct {
	name    string
	path    string
	parse   func([]byte) (any, *apiError)
	compute func(*Server, context.Context, any) (any, *apiError)
}

// endpoints lists the POST API surface in registration order.
var endpoints = []endpointDef{
	{"align", "/v1/align", parseAlignRequest, (*Server).computeAlign},
	{"simulate", "/v1/simulate", parseSimulateRequest, (*Server).computeSimulate},
}

// RequestKey parses body as a request for the endpoint at path and returns
// the sha256 cache key the server will derive for it: the same
// parse-canonicalize-hash pipeline serveAPI runs, so the load corpus and
// the benchmark's warm set name exactly the keys the handler caches. It
// fails for unknown paths and for bodies the endpoint's parser rejects
// (the server would answer those with an error envelope, so they have no
// cache key).
func RequestKey(path string, body []byte) (string, error) {
	for _, e := range endpoints {
		if e.path != path {
			continue
		}
		req, aerr := e.parse(body)
		if aerr != nil {
			return "", fmt.Errorf("parsing %s request: %w", e.name, aerr)
		}
		key, aerr := cacheKey(e.name, req)
		if aerr != nil {
			return "", fmt.Errorf("canonicalizing %s request: %w", e.name, aerr)
		}
		return key, nil
	}
	return "", fmt.Errorf("no API endpoint at %q", path)
}
