#include "fault/integrity.hpp"

#include "util/config.hpp"
#include "util/error.hpp"

namespace pgasq::fault {

IntegrityConfig IntegrityConfig::from_config(const Config& cfg) {
  IntegrityConfig out;
  for (const auto& key : cfg.keys()) {
    if (key.rfind("integrity.", 0) == 0) {
      out.configured = true;
      break;
    }
  }
  out.verify = cfg.get_bool("integrity.verify", true);
  out.coll_check = cfg.get_bool("integrity.coll_check", true);
  out.ckpt_digest = cfg.get_bool("integrity.ckpt_digest", true);
  out.crc_setup_ns = cfg.get_double("integrity.crc_setup_ns", 20.0);
  out.crc_ns_per_byte = cfg.get_double("integrity.crc_ns_per_byte", 0.005);
  PGASQ_CHECK(out.crc_setup_ns >= 0.0,
              << "integrity.crc_setup_ns = " << out.crc_setup_ns);
  PGASQ_CHECK(out.crc_ns_per_byte >= 0.0,
              << "integrity.crc_ns_per_byte = " << out.crc_ns_per_byte);
  return out;
}

}  // namespace pgasq::fault
