#include "concurrency/transaction_context.h"

namespace ocb {

const char* LockModeToString(LockMode mode) {
  switch (mode) {
    case LockMode::kShared:
      return "S";
    case LockMode::kExclusive:
      return "X";
  }
  return "?";
}

const char* TxnModeToString(TxnMode mode) {
  switch (mode) {
    case TxnMode::kSnapshotRead:
      return "snapshot-read";
    case TxnMode::k2PL:
      return "2pl";
    case TxnMode::kSI:
      return "si";
    case TxnMode::kOCC:
      return "occ";
  }
  return "?";
}

const char* TxnStateToString(TxnState state) {
  switch (state) {
    case TxnState::kActive:
      return "active";
    case TxnState::kPrepared:
      return "prepared";
    case TxnState::kCommitted:
      return "committed";
    case TxnState::kAborted:
      return "aborted";
  }
  return "?";
}

}  // namespace ocb
