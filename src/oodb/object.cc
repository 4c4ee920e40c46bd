#include "oodb/object.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/format.h"

namespace ocb {
namespace {

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}
void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// The filler of class c is the byte ramp (c * 131 + i) & 0xFF. Two periods
// of the ramp hold every 256-byte window of it: a window starts at
// kRamp[(c * 131) & 0xFF], because 256 is a whole period.
constexpr size_t kFillerWindow = 256;
constexpr std::array<uint8_t, 2 * kFillerWindow> kRamp = [] {
  std::array<uint8_t, 2 * kFillerWindow> ramp{};
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<uint8_t>(i);
  }
  return ramp;
}();

const uint8_t* FillerWindow(ClassId class_id) {
  return kRamp.data() + ((class_id * 131) & 0xFF);
}

bool FillerIntact(const uint8_t* filler, ClassId class_id, uint32_t size) {
  const uint8_t* window = FillerWindow(class_id);
  for (size_t done = 0; done < size; done += kFillerWindow) {
    const size_t n = std::min<size_t>(kFillerWindow, size - done);
    if (std::memcmp(filler + done, window, n) != 0) return false;
  }
  return true;
}

}  // namespace

void Object::EncodeTo(std::vector<uint8_t>* out) const {
  out->clear();
  out->reserve(EncodedSize());
  PutU32(out, class_id);
  PutU16(out, static_cast<uint16_t>(orefs.size()));
  PutU16(out, static_cast<uint16_t>(backrefs.size()));
  PutU32(out, filler_size);
  for (Oid ref : orefs) PutU64(out, ref);
  for (Oid ref : backrefs) PutU64(out, ref);
  // Filler: a cheap deterministic pattern keyed by class so that tests can
  // detect relocation corrupting payload bytes.
  const uint8_t* window = FillerWindow(class_id);
  for (size_t done = 0; done < filler_size; done += kFillerWindow) {
    const size_t n = std::min<size_t>(kFillerWindow, filler_size - done);
    out->insert(out->end(), window, window + n);
  }
}

Result<Object> Object::Decode(std::span<const uint8_t> bytes) {
  if (bytes.size() < 12) {
    return Status::Corruption("object record shorter than header");
  }
  Object obj;
  obj.class_id = GetU32(bytes.data());
  const uint16_t oref_count = GetU16(bytes.data() + 4);
  const uint16_t backref_count = GetU16(bytes.data() + 6);
  obj.filler_size = GetU32(bytes.data() + 8);
  const size_t expected = 12 + 8 * (static_cast<size_t>(oref_count) +
                                    backref_count) +
                          obj.filler_size;
  if (bytes.size() != expected) {
    return Status::Corruption(
        Format("object record size %zu, expected %zu", bytes.size(),
               expected));
  }
  const uint8_t* p = bytes.data() + 12;
  obj.orefs.resize(oref_count);
  for (uint16_t i = 0; i < oref_count; ++i, p += 8) obj.orefs[i] = GetU64(p);
  obj.backrefs.resize(backref_count);
  for (uint16_t i = 0; i < backref_count; ++i, p += 8) {
    obj.backrefs[i] = GetU64(p);
  }
  // Verify the filler pattern (cheap corruption tripwire) a window at a
  // time; the byte loop runs only to name the first bad byte.
  if (FillerIntact(p, obj.class_id, obj.filler_size)) return obj;
  for (uint32_t i = 0; i < obj.filler_size; ++i) {
    if (p[i] != static_cast<uint8_t>((obj.class_id * 131 + i) & 0xFF)) {
      return Status::Corruption(
          Format("filler corruption at byte %u", i));
    }
  }
  return obj;
}

size_t Object::LiveRefCount() const {
  size_t live = 0;
  for (Oid ref : orefs) {
    if (ref != kInvalidOid) ++live;
  }
  return live;
}

}  // namespace ocb
