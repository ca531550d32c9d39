package epochwire

import "repro/internal/ctl"

// CtlClient is ctl.Client under the name bench/store.go, frozen for the
// PR that moved it, still uses; the next benchmark PR deletes this line.
type CtlClient = ctl.Client
