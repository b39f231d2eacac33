#include "aets/log/view.h"

#include "aets/common/macros.h"

namespace aets {

namespace {

template <typename T>
const char* ReadFixed(const char* p, const char* end, T* out) {
  if (p == nullptr || end - p < static_cast<ptrdiff_t>(sizeof(T))) {
    return nullptr;
  }
  std::memcpy(out, p, sizeof(T));
  return p + sizeof(T);
}

}  // namespace

Value ValueView::ToValue() const {
  switch (tag) {
    case ValueTag::kNull:
      return Value::Null();
    case ValueTag::kInt64:
      return Value(i64);
    case ValueTag::kDouble:
      return Value(f64);
    case ValueTag::kString:
      return Value(std::string(str));
  }
  AETS_CHECK_MSG(false, "bad ValueView tag");
  return Value::Null();
}

bool ValueView::Equals(const Value& v) const {
  switch (tag) {
    case ValueTag::kNull:
      return v.is_null();
    case ValueTag::kInt64:
      return v.is_int64() && v.as_int64() == i64;
    case ValueTag::kDouble:
      return v.is_double() && v.as_double() == f64;
    case ValueTag::kString:
      return v.is_string() && v.as_string() == str;
  }
  return false;
}

void AppendValueWire(const Value& v, std::string* out) {
  const size_t at = out->size();
  out->resize(at + ValueWireSize(v));
  WriteValueWire(out->data() + at, v);
}

char* WriteValueWire(char* dst, const Value& v) {
  if (v.is_null()) {
    *dst++ = static_cast<char>(ValueTag::kNull);
  } else if (v.is_int64()) {
    *dst++ = static_cast<char>(ValueTag::kInt64);
    int64_t payload = v.as_int64();
    std::memcpy(dst, &payload, sizeof(payload));
    dst += sizeof(payload);
  } else if (v.is_double()) {
    *dst++ = static_cast<char>(ValueTag::kDouble);
    double payload = v.as_double();
    std::memcpy(dst, &payload, sizeof(payload));
    dst += sizeof(payload);
  } else {
    const std::string& s = v.as_string();
    *dst++ = static_cast<char>(ValueTag::kString);
    uint32_t len = static_cast<uint32_t>(s.size());
    std::memcpy(dst, &len, sizeof(len));
    dst += sizeof(len);
    std::memcpy(dst, s.data(), s.size());
    dst += s.size();
  }
  return dst;
}

const char* ParseValueWire(const char* p, const char* end, ValueView* out) {
  uint8_t tag;
  p = ReadFixed(p, end, &tag);
  if (p == nullptr) return nullptr;
  switch (static_cast<ValueTag>(tag)) {
    case ValueTag::kNull:
      out->tag = ValueTag::kNull;
      return p;
    case ValueTag::kInt64:
      out->tag = ValueTag::kInt64;
      return ReadFixed(p, end, &out->i64);
    case ValueTag::kDouble:
      out->tag = ValueTag::kDouble;
      return ReadFixed(p, end, &out->f64);
    case ValueTag::kString: {
      uint32_t len;
      p = ReadFixed(p, end, &len);
      if (p == nullptr || end - p < static_cast<ptrdiff_t>(len)) {
        return nullptr;
      }
      out->tag = ValueTag::kString;
      out->str = std::string_view(p, len);
      return p + len;
    }
    default:
      return nullptr;
  }
}

bool DeltaReader::Next(ColumnId* col, ValueView* value) {
  if (remaining_ == 0) return false;
  const char* p = ReadFixed(pos_, end_, col);
  p = ParseValueWire(p, end_, value);
  AETS_CHECK_MSG(p != nullptr, "DeltaReader over unvalidated bytes");
  pos_ = p;
  --remaining_;
  return true;
}

LogRecord LogRecordView::Materialize() const {
  LogRecord rec;
  rec.type = type;
  rec.lsn = lsn;
  rec.txn_id = txn_id;
  rec.timestamp = timestamp;
  if (is_dml()) {
    rec.table_id = table_id;
    rec.row_key = row_key;
    rec.prev_txn_id = prev_txn_id;
    rec.row_seq = row_seq;
    rec.values.reserve(num_values);
    DeltaReader reader = values();
    ColumnId col;
    ValueView v;
    while (reader.Next(&col, &v)) {
      rec.values.push_back(ColumnValue{col, v.ToValue()});
    }
  }
  return rec;
}

}  // namespace aets
