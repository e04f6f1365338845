#include "verify/verifier.hpp"

namespace upkit::verify {

using manifest::Manifest;

Status Verifier::verify_signatures(const Manifest& m) const {
    // Vendor first, then server, one verify each (the same order and shape
    // as suit::verify_envelope), so a rejection names its signature directly.
    if (!backend_->verify(vendor_key_, crypto::Sha256::digest(m.vendor_signed_bytes()),
                          m.vendor_signature)) {
        return Status::kBadVendorSignature;
    }
    if (!backend_->verify(server_key_, crypto::Sha256::digest(m.server_signed_bytes()),
                          m.server_signature)) {
        return Status::kBadServerSignature;
    }
    return Status::kOk;
}

Status Verifier::verify_suit_envelope(const suit::Envelope& envelope) const {
    return suit::verify_envelope(envelope, vendor_key_, server_key_, *backend_);
}

Status Verifier::check_compatibility(const Manifest& m, const DeviceIdentity& identity,
                                     const slots::SlotConfig& slot) const {
    if (m.app_id != identity.app_id) return Status::kBadAppId;
    if (m.link_offset != slots::kAnyLinkOffset && m.link_offset != slot.link_offset) {
        return Status::kBadLinkOffset;
    }
    // Chunked manifests carry a variable-length header (the chunk table).
    const std::uint64_t header =
        m.chunked ? manifest::wire_size(m) : manifest::kManifestSize;
    if (header + static_cast<std::uint64_t>(m.firmware_size) > slot.size) {
        return Status::kSlotTooSmall;
    }
    return Status::kOk;
}

Status Verifier::verify_manifest(const Manifest& m, const manifest::DeviceToken& token,
                                 const DeviceIdentity& identity,
                                 const slots::SlotConfig& target_slot) const {
    UPKIT_RETURN_IF_ERROR(verify_manifest_fields(m, token, identity, target_slot));
    return verify_signatures(m);
}

Status Verifier::verify_manifest_fields(const Manifest& m,
                                        const manifest::DeviceToken& token,
                                        const DeviceIdentity& identity,
                                        const slots::SlotConfig& target_slot) const {
    // Freshness properties first (paper: ID and nonce must echo the token).
    if (m.device_id != identity.device_id || m.device_id != token.device_id) {
        return Status::kBadDeviceId;
    }
    if (m.nonce != token.nonce) return Status::kBadNonce;
    if (m.version <= identity.installed_version) return Status::kStaleVersion;

    if (m.differential) {
        if (!identity.supports_differential) return Status::kBadOldVersion;
        if (m.old_version != identity.installed_version) return Status::kBadOldVersion;
    } else if (m.old_version != 0) {
        return Status::kBadManifest;  // full images carry no base version
    }
    if (m.chunked) {
        // A chunked transfer is a whole-image delivery where part of the
        // image is sourced locally: never differential or encrypted, the
        // air payload is at most the image (and legitimately zero when the
        // device already holds every chunk), and the table must tile the
        // image exactly.
        if (m.differential || m.encrypted) return Status::kBadManifest;
        if (m.payload_size > m.firmware_size) return Status::kBadManifest;
        UPKIT_RETURN_IF_ERROR(manifest::validate_chunk_table(m));
    } else {
        if (m.payload_size == 0) return Status::kBadManifest;
        const std::uint32_t overhead =
            m.encrypted ? static_cast<std::uint32_t>(manifest::kEncryptionOverhead) : 0;
        if (!m.differential && m.payload_size != m.firmware_size + overhead) {
            return Status::kBadManifest;
        }
        if (m.encrypted && m.payload_size <= overhead) return Status::kBadManifest;
    }

    return check_compatibility(m, identity, target_slot);
}

Status Verifier::verify_firmware_digest(const Manifest& m,
                                        const crypto::Sha256Digest& actual) const {
    if (!ct_equal(ByteSpan(m.digest.data(), m.digest.size()),
                  ByteSpan(actual.data(), actual.size()))) {
        return Status::kBadDigest;
    }
    return Status::kOk;
}

Status Verifier::verify_stored_image(const Manifest& m, ByteSpan firmware,
                                     const DeviceIdentity& identity,
                                     const slots::SlotConfig& slot) const {
    if (firmware.size() != m.firmware_size) return Status::kTruncatedImage;
    UPKIT_RETURN_IF_ERROR(check_compatibility(m, identity, slot));
    UPKIT_RETURN_IF_ERROR(verify_signatures(m));
    return verify_firmware_digest(m, backend_->digest(firmware));
}

}  // namespace upkit::verify
