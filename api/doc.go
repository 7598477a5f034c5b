// Package api defines the JSON wire types of the pnn serving stack,
// shared by the server (pnn/server), the shard router (pnn/server/shard),
// and the Go client (pnn/client).
//
// # Wire-format stability
//
// The types in this package are a compatibility contract between
// independently deployed tiers: a client built against one version must
// keep working against servers and routers built from another. To that
// end the package promises:
//
//   - Field names and JSON tags of existing fields never change and are
//     never removed; new fields are only ever added, and always with
//     omitempty so old servers' responses still decode cleanly.
//   - Responses are encoded deterministically: the same answer always
//     serializes to the same bytes, exactly those encoding/json writes
//     for these struct types. The server writes /v1/probabilities
//     bodies with its own encoder, which a server test and a fuzz
//     target pin byte for byte to encoding/json; every other response
//     goes through encoding/json itself. The server's result cache and
//     the router's scatter-gather path both rely on this — cached and
//     proxied bodies are byte-identical to freshly computed ones.
//   - Error bodies always decode into Error. Code was added after
//     Error.Error and may be empty when talking to older servers;
//     clients must treat an empty Code as CodeInternal.
//   - BatchResult.Body holds exactly the single-endpoint response
//     object of the item's Op (api.Nonzero for "nonzero", and so on),
//     so batch and single-query paths share one decoding surface.
//
// Endpoints are versioned under /v1; incompatible changes get a new
// version prefix rather than mutating these types.
package api
