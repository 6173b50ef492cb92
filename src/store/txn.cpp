#include "store/txn.h"

namespace wankeeper::store {

const char* txn_type_name(TxnType t) {
  switch (t) {
    case TxnType::kNoop: return "noop";
    case TxnType::kCreate: return "create";
    case TxnType::kDelete: return "delete";
    case TxnType::kSetData: return "setData";
    case TxnType::kMulti: return "multi";
    case TxnType::kCreateSession: return "createSession";
    case TxnType::kCloseSession: return "closeSession";
    case TxnType::kTokenGranted: return "tokenGranted";
    case TxnType::kTokenReturned: return "tokenReturned";
    case TxnType::kError: return "error";
  }
  return "?";
}

}  // namespace wankeeper::store
